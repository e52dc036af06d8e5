package libstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accqoc/internal/gate"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
)

// synthEntry builds a deterministic fake entry (no training).
func synthEntry(i int) *precompile.Entry {
	p := pulse.New([]string{"x0", "y0"}, 12, 2.0)
	for c := range p.Amps {
		for s := range p.Amps[c] {
			p.Amps[c][s] = math.Sin(float64(i+c) + float64(s)/3)
		}
	}
	return &precompile.Entry{
		Key:        fmt.Sprintf("key-%04d", i),
		NumQubits:  1,
		Pulse:      p,
		LatencyNs:  24,
		Iterations: 10 + i,
		Frequency:  1,
		Infidelity: 1e-4,
	}
}

func TestStoreGetPutCounters(t *testing.T) {
	s := New(Options{})
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get on empty store succeeded")
	}
	e := synthEntry(1)
	s.Put(e)
	got, ok := s.Get(e.Key)
	if !ok || got != e {
		t.Fatalf("Get(%q) = %v, %v", e.Key, got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry / 1 insert", st)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := New(Options{Capacity: 3})
	for i := 0; i < 3; i++ {
		s.Put(synthEntry(i))
	}
	// Refresh key-0000 so key-0001 is the LRU victim.
	if _, ok := s.Get("key-0000"); !ok {
		t.Fatal("key-0000 missing before eviction")
	}
	s.Put(synthEntry(3))
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Contains("key-0001") {
		t.Fatal("LRU victim key-0001 survived eviction")
	}
	for _, k := range []string{"key-0000", "key-0002", "key-0003"} {
		if !s.Contains(k) {
			t.Fatalf("%s evicted, want key-0001", k)
		}
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestGetOrTrainSingleflight(t *testing.T) {
	s := New(Options{})
	const callers = 32
	release := make(chan struct{})
	var trainCalls int
	var trainedOutcomes atomic.Int64
	var wg sync.WaitGroup
	started := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-started
			e, outcome, err := s.GetOrTrain("key-0007", func() (*precompile.Entry, error) {
				trainCalls++ // only one goroutine may ever run this
				<-release
				return synthEntry(7), nil
			})
			if err != nil {
				t.Errorf("GetOrTrain: %v", err)
			}
			if e == nil || e.Key != "key-0007" {
				t.Errorf("GetOrTrain entry = %+v", e)
			}
			if outcome == OutcomeTrained {
				trainedOutcomes.Add(1)
			}
		}()
	}
	close(started)
	close(release)
	wg.Wait()
	if trainCalls != 1 {
		t.Fatalf("train ran %d times, want exactly 1", trainCalls)
	}
	if trainedOutcomes.Load() != 1 {
		t.Fatalf("%d callers reported OutcomeTrained, want exactly 1", trainedOutcomes.Load())
	}
	st := s.Stats()
	if st.Trainings != 1 {
		t.Fatalf("Trainings = %d, want 1", st.Trainings)
	}
	if st.DedupSuppressed+st.Hits != callers-1 {
		t.Fatalf("dedup %d + hits %d, want %d callers accounted", st.DedupSuppressed, st.Hits, callers-1)
	}
}

func TestGetOrTrainErrorNotCached(t *testing.T) {
	s := New(Options{})
	boom := errors.New("bracket exhausted")
	if _, _, err := s.GetOrTrain("k", func() (*precompile.Entry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if s.Len() != 0 {
		t.Fatal("failed training was cached")
	}
	if st := s.Stats(); st.TrainFailures != 1 {
		t.Fatalf("TrainFailures = %d, want 1", st.TrainFailures)
	}
	// A later call retries.
	e := synthEntry(0)
	got, outcome, err := s.GetOrTrain("key-0000", func() (*precompile.Entry, error) { return e, nil })
	if err != nil || got != e || outcome != OutcomeTrained {
		t.Fatalf("retry = %v, %v, %v", got, outcome, err)
	}
}

// TestGetOrTrainPanicFailsClosed is the wedged-key regression: a train
// function that panics must not leave its in-flight call installed. The
// trainer and a caller that joined it both get a counted ErrTrainPanic
// failure, nothing is cached, and the next call trains the key afresh.
func TestGetOrTrainPanicFailsClosed(t *testing.T) {
	s := New(Options{})
	entered, release := make(chan struct{}), make(chan struct{})
	type result struct {
		outcome Outcome
		err     error
	}
	trainer, joiner := make(chan result, 1), make(chan result, 1)
	go func() {
		_, outcome, err := s.GetOrTrain("key-0003", func() (*precompile.Entry, error) {
			close(entered)
			<-release
			panic("group unitary shape mismatch")
		})
		trainer <- result{outcome, err}
	}()
	<-entered
	go func() {
		_, outcome, err := s.GetOrTrain("key-0003", func() (*precompile.Entry, error) {
			t.Error("joiner ran a second training")
			return synthEntry(3), nil
		})
		joiner <- result{outcome, err}
	}()
	for s.Stats().DedupSuppressed == 0 {
		time.Sleep(time.Millisecond) // until the joiner waits on the flight
	}
	close(release)
	for name, ch := range map[string]chan result{"trainer": trainer, "joiner": joiner} {
		select {
		case r := <-ch:
			want := OutcomeTrained
			if name == "joiner" {
				want = OutcomeJoined
			}
			if r.outcome != want || !errors.Is(r.err, ErrTrainPanic) {
				t.Fatalf("%s = %v, %v; want outcome %v and ErrTrainPanic", name, r.outcome, r.err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still blocked: the key is wedged", name)
		}
	}
	if st := s.Stats(); st.Trainings != 1 || st.TrainFailures != 1 || st.DedupSuppressed != 1 || st.Entries != 0 {
		t.Fatalf("stats after panic = %+v, want 1 training, 1 failure, 1 joiner, 0 entries", st)
	}
	e, outcome, err := s.GetOrTrain("key-0003", func() (*precompile.Entry, error) { return synthEntry(3), nil })
	if err != nil || outcome != OutcomeTrained || e == nil {
		t.Fatalf("retry = %v, %v, %v; want a fresh training", e, outcome, err)
	}
	if _, ok := s.Get("key-0003"); !ok {
		t.Fatal("retried entry not cached")
	}
}

func TestGetOrTrainKeyMismatch(t *testing.T) {
	s := New(Options{})
	if _, _, err := s.GetOrTrain("expected", func() (*precompile.Entry, error) { return synthEntry(1), nil }); err == nil {
		t.Fatal("key-mismatched entry accepted")
	}
}

// TestStoreConcurrentHammer drives readers, writers and singleflight
// trainers across a small keyspace with eviction pressure; run with -race.
func TestStoreConcurrentHammer(t *testing.T) {
	s := New(Options{Capacity: 64})
	const (
		goroutines = 16
		iters      = 500
		keyspace   = 128
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*31 + i*17) % keyspace
				key := fmt.Sprintf("key-%04d", k)
				switch i % 4 {
				case 0:
					s.Put(synthEntry(k))
				case 1:
					if e, ok := s.Get(key); ok && e.Key != key {
						t.Errorf("Get(%q) returned entry %q", key, e.Key)
					}
				case 2:
					e, _, err := s.GetOrTrain(key, func() (*precompile.Entry, error) {
						return synthEntry(k), nil
					})
					if err != nil || e.Key != key {
						t.Errorf("GetOrTrain(%q) = %v, %v", key, e, err)
					}
				default:
					s.Len()
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries > 64 {
		t.Fatalf("entries %d exceed capacity 64", st.Entries)
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

func TestSnapshotRoundTripSynthetic(t *testing.T) {
	for _, format := range []Format{FormatGob, FormatJSON} {
		t.Run(format.String(), func(t *testing.T) {
			s := New(Options{})
			for i := 0; i < 20; i++ {
				s.Put(synthEntry(i))
			}
			path := filepath.Join(t.TempDir(), "lib.snap")
			if err := s.SaveSnapshotFingerprint(path, format, ""); err != nil {
				t.Fatal(err)
			}
			lib, _, err := LoadSnapshotFingerprint(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(lib.Entries) != 20 {
				t.Fatalf("loaded %d entries, want 20", len(lib.Entries))
			}
			for k, e := range lib.Entries {
				want := s.Snapshot().Entries[k]
				if e.LatencyNs != want.LatencyNs || e.Iterations != want.Iterations {
					t.Fatalf("entry %s metadata drifted: %+v vs %+v", k, e, want)
				}
				if e.Pulse.Segments() != want.Pulse.Segments() || e.Pulse.Dt != want.Pulse.Dt {
					t.Fatalf("entry %s pulse shape drifted", k)
				}
				for c := range e.Pulse.Amps {
					for i := range e.Pulse.Amps[c] {
						if e.Pulse.Amps[c][i] != want.Pulse.Amps[c][i] {
							t.Fatalf("entry %s amp[%d][%d] drifted", k, c, i)
						}
					}
				}
			}
		})
	}
}

// TestSnapshotRoundTripTrained round-trips a genuinely trained library
// through both formats, verifying the reloaded pulses still implement
// their unitaries.
func TestSnapshotRoundTripTrained(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	var groups []*grouping.Group
	for _, a := range []float64{0.4, 1.1} {
		groups = append(groups, &grouping.Group{
			Qubits: []int{0},
			Gates:  []gate.Instance{gate.MustInstance(gate.RZ, []int{0}, a)},
		})
	}
	uniq, err := grouping.Deduplicate(groups)
	if err != nil {
		t.Fatal(err)
	}
	lib, _, err := precompile.Build(uniq, precompile.Config{
		Grape: grape.Options{TargetInfidelity: 1e-3, MaxIterations: 400, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Entries) != 2 {
		t.Fatalf("trained %d entries, want 2", len(lib.Entries))
	}
	for _, format := range []Format{FormatGob, FormatJSON} {
		path := filepath.Join(t.TempDir(), "trained."+format.String())
		if err := SaveLibraryFingerprint(lib, path, format, ""); err != nil {
			t.Fatal(err)
		}
		got, _, err := LoadSnapshotFingerprint(path)
		if err != nil {
			t.Fatal(err)
		}
		for k, e := range lib.Entries {
			ge, ok := got.Entries[k]
			if !ok {
				t.Fatalf("%s: entry %s lost in round trip", format, k)
			}
			if ge.LatencyNs != e.LatencyNs || ge.Infidelity != e.Infidelity {
				t.Fatalf("%s: entry %s metadata drifted", format, k)
			}
			for c := range e.Pulse.Amps {
				for i := range e.Pulse.Amps[c] {
					if ge.Pulse.Amps[c][i] != e.Pulse.Amps[c][i] {
						t.Fatalf("%s: entry %s amplitudes drifted", format, k)
					}
				}
			}
		}
	}
}

func TestLoadSnapshotCorrupt(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	s := New(Options{})
	for i := 0; i < 4; i++ {
		s.Put(synthEntry(i))
	}
	valid, err := EncodeSnapshotFingerprint(s.Snapshot(), FormatGob, "")
	if err != nil {
		t.Fatal(err)
	}
	// A payload bit flip must fail the checksum even when the damaged gob
	// would still decode into a structurally valid library (flipped float
	// bits) — the exact corruption structural validation cannot see.
	bitFlip := append([]byte{}, valid...)
	bitFlip[len(bitFlip)-20] ^= 0x40
	cases := map[string][]byte{
		"empty":        {},
		"short":        {'A', 'Q'},
		"bad-magic":    append([]byte("NOPE"), valid[4:]...),
		"bad-version":  append([]byte("AQLS\xff"), valid[5:]...),
		"bad-format":   append([]byte("AQLS\x01\x09"), valid[6:]...),
		"truncated":    valid[:len(valid)-7],
		"bit-flip":     bitFlip,
		"junk-payload": append(append([]byte{}, valid[:headerLen]...), []byte("this is not gob")...),
	}
	for name, data := range cases {
		if _, _, err := LoadSnapshotFingerprint(write(name, data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// JSON payload (with a correct checksum) that decodes but fails pulse
	// validation.
	badPulse := []byte(`{"entries":{"k":{"key":"k","num_qubits":1,"pulse":{"labels":["x0"],"amps":[[1,2]],"dt_ns":-1},"latency_ns":1}}}`)
	if _, _, err := LoadSnapshotFingerprint(write("bad-pulse", sealSnapshot(byte(FormatJSON), "", badPulse))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad-pulse: err = %v, want ErrCorrupt", err)
	}
	// Entry filed under a map key different from its own Key (would be
	// silently re-keyed by AddLibrary if accepted).
	mismatched := []byte(`{"entries":{"other":{"key":"k","num_qubits":1,"pulse":{"labels":["x0"],"amps":[[1,2]],"dt_ns":2},"latency_ns":1}}}`)
	if _, _, err := LoadSnapshotFingerprint(write("key-mismatch", sealSnapshot(byte(FormatJSON), "", mismatched))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("key-mismatch: err = %v, want ErrCorrupt", err)
	}
	// Missing file surfaces the os error, not ErrCorrupt.
	if _, _, err := LoadSnapshotFingerprint(filepath.Join(dir, "nope.snap")); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want IsNotExist", err)
	}
}

func TestSaveSnapshotAtomic(t *testing.T) {
	s := New(Options{})
	s.Put(synthEntry(0))
	path := filepath.Join(t.TempDir(), "lib.snap")
	if err := s.SaveSnapshotFingerprint(path, FormatGob, ""); err != nil {
		t.Fatal(err)
	}
	// A second save over the same path must succeed and leave no temp files.
	s.Put(synthEntry(1))
	if err := s.SaveSnapshotFingerprint(path, FormatGob, ""); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d files, want only the snapshot", len(entries))
	}
	lib, _, err := LoadSnapshotFingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Entries) != 2 {
		t.Fatalf("reloaded %d entries, want 2", len(lib.Entries))
	}
}

// TestStoreCapacityExactBound pins the capacity bound: the store never
// holds more than Capacity entries.
func TestStoreCapacityExactBound(t *testing.T) {
	for _, capacity := range []int{100, 9, 4, 5, 1} {
		s := New(Options{Capacity: capacity})
		for i := 0; i < 4*capacity+64; i++ {
			s.Put(synthEntry(i))
		}
		if got := s.Len(); got > capacity {
			t.Errorf("capacity=%d: %d entries resident, exceeds capacity", capacity, got)
		}
		if st := s.Stats(); st.Entries > capacity {
			t.Errorf("capacity=%d: Stats.Entries = %d", capacity, st.Entries)
		}
	}
}

// TestStoreEvictionIsOneLRU pins eviction as one least-recently-used order
// over the whole store: two stores fed the same puts hold the same keys,
// and those are exactly the most recent Capacity of them.
func TestStoreEvictionIsOneLRU(t *testing.T) {
	const capacity, puts = 8, 100
	a, b := New(Options{Capacity: capacity}), New(Options{Capacity: capacity})
	for i := 0; i < puts; i++ {
		a.Put(synthEntry(i))
		b.Put(synthEntry(i))
	}
	for _, s := range []*Store{a, b} {
		if s.Len() != capacity {
			t.Fatalf("Len = %d, want %d", s.Len(), capacity)
		}
		for i := puts - capacity; i < puts; i++ {
			if key := synthEntry(i).Key; !s.Contains(key) {
				t.Fatalf("%s, one of the %d most recent keys, was evicted; resident %v",
					key, capacity, s.KeysByHits())
			}
		}
	}
	if st := a.Stats(); st.Evictions != puts-capacity {
		t.Fatalf("evictions = %d, want %d", st.Evictions, puts-capacity)
	}
}

// recordingHook captures mutation callbacks for coherence assertions.
// Callbacks are ordered (they run under the store's lock), so the last
// event per key is the key's residency — the same property the seed
// index relies on. adds counts every EntryAdded, including replacements
// of resident keys.
type recordingHook struct {
	mu       sync.Mutex
	resident map[string]bool
	adds     map[string]int
}

func newRecordingHook() *recordingHook {
	return &recordingHook{resident: map[string]bool{}, adds: map[string]int{}}
}

func (h *recordingHook) EntryAdded(e *precompile.Entry) {
	h.mu.Lock()
	h.resident[e.Key] = true
	h.adds[e.Key]++
	h.mu.Unlock()
}

func (h *recordingHook) EntryRemoved(key string) {
	h.mu.Lock()
	h.resident[key] = false
	h.mu.Unlock()
}

// live returns the set of keys the hook believes are resident.
func (h *recordingHook) live() map[string]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := map[string]bool{}
	for k, ok := range h.resident {
		if ok {
			out[k] = true
		}
	}
	return out
}

// TestStoreHookMirrorsMutations drives inserts, replacements and LRU
// evictions and checks the hook's view matches the store exactly.
func TestStoreHookMirrorsMutations(t *testing.T) {
	s := New(Options{Capacity: 3})
	h := newRecordingHook()
	s.SetHook(h)

	for i := 0; i < 10; i++ {
		s.Put(synthEntry(i))
	}
	s.Put(synthEntry(9)) // replacement fires EntryAdded again
	_, _, err := s.GetOrTrain("key-0042", func() (*precompile.Entry, error) {
		return synthEntry(42), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	live := h.live()
	if len(live) != s.Len() {
		t.Fatalf("hook sees %d live keys, store holds %d", len(live), s.Len())
	}
	for k := range live {
		if !s.Contains(k) {
			t.Errorf("hook believes %q resident, store disagrees", k)
		}
	}
	h.mu.Lock()
	if h.adds["key-0009"] != 2 {
		t.Errorf("replacement fired EntryAdded %d times, want 2", h.adds["key-0009"])
	}
	h.mu.Unlock()
}

// TestStoreHookUnderConcurrency re-runs the hammer with a hook attached;
// meaningful under -race (hook callbacks run inside the store's critical
// section).
func TestStoreHookUnderConcurrency(t *testing.T) {
	s := New(Options{Capacity: 32})
	h := newRecordingHook()
	s.SetHook(h)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*31 + i*17) % 64
				if i%2 == 0 {
					s.Put(synthEntry(k))
				} else {
					key := fmt.Sprintf("key-%04d", k)
					_, _, _ = s.GetOrTrain(key, func() (*precompile.Entry, error) {
						return synthEntry(k), nil
					})
				}
			}
		}(g)
	}
	wg.Wait()
	live := h.live()
	if len(live) != s.Len() {
		t.Fatalf("hook sees %d live keys, store holds %d", len(live), s.Len())
	}
	for k := range live {
		if !s.Contains(k) {
			t.Errorf("hook believes %q resident, store disagrees", k)
		}
	}
}
