package libstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"accqoc/internal/precompile"
	"accqoc/internal/usage"
)

// benchStore builds a store with n synthetic entries.
func benchStore(n int) *Store {
	s := New(Options{})
	for i := 0; i < n; i++ {
		s.Put(synthEntry(i))
	}
	return s
}

func BenchmarkStoreGetHit(b *testing.B) {
	s := benchStore(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(fmt.Sprintf("key-%04d", i%1024)); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkStoreGetMiss(b *testing.B) {
	s := benchStore(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(fmt.Sprintf("absent-%04d", i%1024)); ok {
			b.Fatal("unexpected hit")
		}
	}
}

func BenchmarkStoreGetHitParallel(b *testing.B) { benchmarkGetHitParallel(b, nil) }

// BenchmarkStoreGetHitParallelLedger is the serving configuration: every
// namespace store carries its device's usage ledger as its access hook,
// so each hit also takes the ledger's mutex inside the store's.
func BenchmarkStoreGetHitParallelLedger(b *testing.B) {
	benchmarkGetHitParallel(b, usage.NewLedger(usage.Options{}))
}

// benchmarkGetHitParallel runs Get hits on 1024 entries from every
// GOMAXPROCS goroutine, with h (nil for none) registered before the
// entries are put.
func benchmarkGetHitParallel(b *testing.B, h Hook) {
	s := New(Options{})
	s.SetHook(h)
	keys := make([]string, 1024)
	for i := range keys {
		e := synthEntry(i)
		s.Put(e)
		keys[i] = e.Key
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := s.Get(keys[i%1024]); !ok {
				b.Fatal("unexpected miss")
			}
			i++
		}
	})
}

func BenchmarkGetOrTrainWarm(b *testing.B) {
	s := benchStore(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("key-%04d", i%1024)
		if _, _, err := s.GetOrTrain(key, func() (*precompile.Entry, error) {
			b.Fatal("warm path trained")
			return nil, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkSnapshotSave(b *testing.B, format Format, entries int) {
	lib := benchStore(entries).Snapshot()
	path := filepath.Join(b.TempDir(), "bench.snap")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SaveLibraryFingerprint(lib, path, format, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkSnapshotLoad(b *testing.B, format Format, entries int) {
	path := filepath.Join(b.TempDir(), "bench.snap")
	if err := SaveLibraryFingerprint(benchStore(entries).Snapshot(), path, format, ""); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LoadSnapshotFingerprint(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotSaveGob(b *testing.B)  { benchmarkSnapshotSave(b, FormatGob, 512) }
func BenchmarkSnapshotSaveJSON(b *testing.B) { benchmarkSnapshotSave(b, FormatJSON, 512) }
func BenchmarkSnapshotLoadGob(b *testing.B)  { benchmarkSnapshotLoad(b, FormatGob, 512) }
func BenchmarkSnapshotLoadJSON(b *testing.B) { benchmarkSnapshotLoad(b, FormatJSON, 512) }
