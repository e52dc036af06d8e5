// Package devreg is the device registry of the serving stack: the layer
// that turns a single-device, frozen-calibration pulse server into the
// fleet-scale, recalibration-surviving system the paper's premise demands.
// AccQOC's whole motivation (§I, §II-E) is that superconducting hardware
// is recalibrated frequently and every recalibration invalidates all
// compiled pulses — so the serving system must treat "device + calibration
// epoch" as the cache key universe, not "device".
//
// The registry holds named device profiles (topology + Hamiltonian
// parameters) and a monotonically increasing calibration epoch per device.
// Each (device, epoch) pair owns its own namespace: a libstore.Store, a
// seedindex.Index kept coherent through the store's mutation hook, and an
// accqoc.Compiler configured for that epoch's physics. Compile requests
// resolve a device name to its current namespace; a calibration event
// opens a new epoch whose recompilation plan re-trains the old epoch's
// covered groups most-requested-first, each seeded by its own old-epoch
// pulse (the warm-start thesis applied across recalibrations). The old
// epoch drains — in-flight requests keep their namespace — and is retired
// once its reference count reaches zero.
package devreg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accqoc"
	"accqoc/internal/circuit"
	"accqoc/internal/cmat"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/libstore"
	"accqoc/internal/precompile"
	"accqoc/internal/seedindex"
	"accqoc/internal/similarity"
	"accqoc/internal/topology"
	"accqoc/internal/usage"
)

// Profile is one device's identity at one calibration epoch: the coupling
// topology (whose Calibration field carries the timing/error model) plus
// the Hamiltonian parameters GRAPE optimizes under.
type Profile struct {
	// Name is the registry name clients route with ("melbourne",
	// "linear5"); it is not part of the fingerprint, so renaming a device
	// does not invalidate its snapshots.
	Name   string
	Device *topology.Device
	Ham    hamiltonian.Config
}

// Fingerprint digests the physics a pulse library is valid for: device
// topology, calibration, and Hamiltonian parameters. Two profiles with
// equal fingerprints can exchange pulses; any drift in calibration or
// Hamiltonian produces a new fingerprint (and therefore a new epoch's
// worth of training). Stamped into snapshot headers by the server.
func (p Profile) Fingerprint() string {
	h := sha256.New()
	d := p.Device
	fmt.Fprintf(h, "topology=%s/%d edges=%v\n", d.Name, d.NumQubits, d.Edges)
	c := d.Calibration
	fmt.Fprintf(h, "cal=%v,%v,%v,%v,%v,%v,%v\n",
		c.T1ns, c.T2ns, c.CXLatencyNs, c.Gate1QLatencyNs, c.FrameLatencyNs, c.CXError, c.Gate1QError)
	m := p.Ham.Normalize()
	fmt.Fprintf(h, "ham=%v,%v,%v\n", m.MaxAmp, m.Coupling, m.Detuning)
	return "aqfp1:" + hex.EncodeToString(h.Sum(nil)[:16])
}

// Config assembles a Registry.
type Config struct {
	// Base is the compiler option template. Device and Precompile.Ham are
	// overridden per namespace; everything else (policy, mapping, GRAPE
	// budgets) is shared across devices and epochs.
	Base accqoc.Options
	// StoreOptions configure each namespace's pulse store.
	StoreOptions libstore.Options
	// SeedObserver, when set, is installed on every namespace's seed index
	// (seedindex.Index.SetObserver): it sees each nearest-seed lookup's
	// candidate distance and admission verdict — the observability tap for
	// the fleet-wide seed-distance histogram.
	SeedObserver func(distance float64, admitted bool)
	// Usage tunes the per-device cost-and-usage ledgers (history-ring
	// size, pair cap). Every epoch's store hook feeds its device's
	// usage.Ledger; the ledger outlives epochs, so cost history survives
	// recalibrations.
	Usage usage.Options
	// CachePolicy selects every namespace store's eviction victim policy:
	// PolicyLRU (or empty — the default, byte-identical to the historical
	// behavior) or PolicyCostAware, which evicts the lowest
	// iterations×hits score as measured by the device's usage ledger.
	CachePolicy string
	// EnablePrefetch retains per-device training targets (TargetCache,
	// prefetchTargetCap of them) past eviction so the speculative-training
	// driver can re-train predicted misses.
	EnablePrefetch bool
}

// prefetchTargetCap bounds each device's target cache.
const prefetchTargetCap = 1024

// Cache policy names accepted by Config.CachePolicy.
const (
	PolicyLRU       = "lru"
	PolicyCostAware = "cost"
)

// Namespace is one (device, epoch) serving context. Fields are immutable
// after construction; Store and Seeds are internally synchronized.
type Namespace struct {
	// DeviceName is the registry name, Epoch the calibration epoch this
	// namespace belongs to (0 = boot).
	DeviceName string
	Epoch      int
	Profile    Profile
	// Comp is the pipeline front end configured for this epoch's physics.
	Comp *accqoc.Compiler
	// Store is the epoch's pulse library.
	Store *libstore.Store
	// Seeds is the epoch's warm-start index. During a roll its parent link
	// points at the previous epoch's index.
	Seeds *seedindex.Index
	// CreatedAt is when the namespace (the calibration epoch) opened —
	// the anchor for epoch-age gauges.
	CreatedAt time.Time
	// Usage is the owning device's cost ledger (shared across this
	// device's epochs). The training tier files each resolved request's
	// key set here; store mutations and lookups feed it through the store
	// hook.
	Usage *usage.Ledger
	// Targets is the owning device's retained-training-target cache (the
	// prefetcher's work source), nil unless prefetch is enabled. Shared
	// across the device's epochs like the ledger.
	Targets *TargetCache

	dev      *deviceState
	refs     atomic.Int64
	retiring atomic.Bool
}

// Plan runs the namespace compiler's front end and canonical-key pass for
// one program — the circuit-serving entry point. It touches neither the
// store nor the index (no training, no counters), so a plan can be built
// outside the worker pool and resolved against the namespace later; the
// (device, epoch) physics are baked into the namespace's compiler.
func (ns *Namespace) Plan(prog *circuit.Circuit) (*accqoc.GroupPlan, error) {
	return ns.Comp.PlanGroups(prog)
}

// SimilarityFn returns the similarity function this namespace plans and
// seeds with.
func (ns *Namespace) SimilarityFn() similarity.Func {
	fn := ns.Comp.Options().Precompile.Similarity
	if fn == "" {
		fn = similarity.TraceFid
	}
	return fn
}

// Release drops the reference taken by Registry.Acquire (or held by a
// Roll). A retiring namespace whose last reference is released is removed
// from its device and the successor epoch's cross-epoch seed link is cut.
func (ns *Namespace) Release() {
	if ns == nil {
		return
	}
	if ns.refs.Add(-1) == 0 && ns.retiring.Load() {
		ns.dev.maybeRetire(ns)
	}
}

// Refs reports the live reference count (used by status and tests).
func (ns *Namespace) Refs() int64 { return ns.refs.Load() }

// RollStatus is the progress of a device's most recent (or in-flight)
// cross-epoch recompilation.
type RollStatus struct {
	// Active is true from the calibration event until the pipeline and
	// the epoch swap have fully completed.
	Active bool `json:"active"`
	// Epoch is the epoch being (or last) rolled to.
	Epoch int `json:"epoch"`
	// Planned counts the old-epoch entries scheduled for re-training,
	// most-requested-first. Done/Skipped/Failed partition the processed
	// ones: Skipped entries were already covered in the new epoch (a
	// serving-path miss got there first), Failed ones did not converge.
	Planned int `json:"planned"`
	Done    int `json:"done"`
	Skipped int `json:"skipped"`
	Failed  int `json:"failed"`
	// WarmSeeded counts re-trainings that started from their old-epoch
	// pulse (the cross-epoch warm start); Iterations sums their GRAPE
	// iterations.
	WarmSeeded int `json:"warm_seeded"`
	Iterations int `json:"iterations"`
}

// Pending returns the plan items not yet processed.
func (r RollStatus) Pending() int {
	p := r.Planned - r.Done - r.Skipped - r.Failed
	if p < 0 {
		p = 0
	}
	return p
}

// DeviceStatus is a point-in-time view of one registered device.
type DeviceStatus struct {
	Name        string `json:"name"`
	Topology    string `json:"topology"`
	Qubits      int    `json:"qubits"`
	Epoch       int    `json:"epoch"`
	Entries     int    `json:"entries"`
	Fingerprint string `json:"fingerprint"`
	// EpochAgeSeconds is the time since the current epoch's namespace
	// opened — a long age on a frequently recalibrated device means the
	// calibration feed has gone quiet.
	EpochAgeSeconds float64 `json:"epoch_age_seconds"`
	// Draining reports a previous epoch still alive under in-flight
	// references, and DrainingRefs its reference count.
	Draining     bool           `json:"draining,omitempty"`
	DrainingRefs int64          `json:"draining_refs,omitempty"`
	Library      libstore.Stats `json:"library"`
	Recompile    RollStatus     `json:"recompile"`
}

type deviceState struct {
	mu       sync.Mutex
	name     string
	current  *Namespace
	draining *Namespace
	roll     RollStatus
	// usage is the device's cost ledger. It lives on the device, not the
	// namespace: calibration epochs come and go, the accumulated cost
	// history stays (keys are content addresses shared across epochs).
	usage *usage.Ledger
	// policy is the device's cost-aware eviction policy (nil under pure
	// LRU); like the ledger it scores, it is epoch-stable and installed on
	// every epoch's store.
	policy *libstore.CostAwarePolicy
	// targets retains training targets past eviction for the prefetcher,
	// nil when prefetch is off. Epoch-stable: unitaries are
	// calibration-independent.
	targets *TargetCache
}

func (d *deviceState) maybeRetire(ns *Namespace) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining == ns && ns.refs.Load() == 0 {
		d.draining = nil
		// The old epoch is gone: cut the successor's cross-epoch seed
		// link so retired pulses stop competing as seeds.
		if d.current != nil {
			d.current.Seeds.SetParent(nil)
		}
	}
}

// Registry is the concurrent device registry. All methods are safe for
// concurrent use.
type Registry struct {
	cfg Config

	mu      sync.RWMutex
	devices map[string]*deviceState
	order   []string
	def     string
}

// New builds a registry holding the default device at epoch 0 with an
// empty library. The default profile's Device falls back to the Base
// options' device (or Melbourne) and its Name to "default".
func New(cfg Config, def Profile) (*Registry, error) {
	if def.Name == "" {
		def.Name = "default"
	}
	if def.Device == nil {
		def.Device = cfg.Base.Device
	}
	if def.Device == nil {
		def.Device = topology.Melbourne()
	}
	r := &Registry{cfg: cfg, devices: map[string]*deviceState{}}
	if err := r.Register(def); err != nil {
		return nil, err
	}
	r.def = def.Name
	return r, nil
}

// DefaultName returns the name requests with an empty device field route
// to.
func (r *Registry) DefaultName() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.def
}

// Register adds a device profile at epoch 0 with an empty library.
// Registering an existing name is an error.
func (r *Registry) Register(p Profile) error {
	if p.Name == "" {
		return fmt.Errorf("devreg: device profile needs a name")
	}
	if p.Device == nil {
		return fmt.Errorf("devreg: device %q has no topology", p.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.devices[p.Name]; ok {
		return fmt.Errorf("devreg: device %q already registered", p.Name)
	}
	d := &deviceState{name: p.Name, usage: usage.NewLedger(r.cfg.Usage)}
	switch r.cfg.CachePolicy {
	case "", PolicyLRU:
	case PolicyCostAware:
		d.policy = libstore.CostAware(d.usage)
	default:
		return fmt.Errorf("devreg: unknown cache policy %q (want %q or %q)", r.cfg.CachePolicy, PolicyLRU, PolicyCostAware)
	}
	if r.cfg.EnablePrefetch {
		d.targets = NewTargetCache(prefetchTargetCap)
	}
	d.current = r.newNamespace(d, p, 0, nil)
	r.devices[p.Name] = d
	r.order = append(r.order, p.Name)
	return nil
}

// Current returns a device's current-epoch namespace ("" = default)
// without taking a reference — for inspection (stats endpoints, shutdown
// snapshot saves). Serving paths must use Acquire/Release so a retiring
// epoch outlives their requests.
func (r *Registry) Current(name string) (*Namespace, error) {
	d, err := r.device(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	ns := d.current
	d.mu.Unlock()
	return ns, nil
}

// newNamespace wires one (device, epoch) serving context: compiler, an
// empty store, and a hook-coherent seed index whose parent is the previous
// epoch's index.
func (r *Registry) newNamespace(d *deviceState, p Profile, epoch int, parent *seedindex.Index) *Namespace {
	opts := r.cfg.Base
	opts.Device = p.Device
	opts.Precompile.Ham = p.Ham
	store := libstore.New(r.cfg.StoreOptions)
	ns := &Namespace{
		DeviceName: d.name,
		Epoch:      epoch,
		Profile:    p,
		Comp:       accqoc.New(opts),
		Store:      store,
		CreatedAt:  time.Now(),
		Usage:      d.usage,
		Targets:    d.targets,
		dev:        d,
	}
	seeds := seedindex.New(ns.SimilarityFn(), p.Ham)
	seeds.SetParent(parent)
	if r.cfg.SeedObserver != nil {
		seeds.SetObserver(r.cfg.SeedObserver)
	}
	// The store is empty and not yet shared, so the hooks see every entry
	// it will ever hold. The tee keeps the seed index and the device's
	// usage ledger coherent off one registration; access (hit/miss) events
	// reach only the ledger.
	hooks := []libstore.Hook{seeds, d.usage}
	if d.targets != nil {
		// After the seed index on purpose: the recorder reads the unitary
		// the index just cached for the same EntryAdded.
		hooks = append(hooks, &targetRecorder{seeds: seeds, targets: d.targets})
	}
	store.SetHook(libstore.TeeHooks(hooks...))
	if d.policy != nil {
		store.SetEvictionPolicy(d.policy)
	}
	ns.Seeds = seeds
	return ns
}

// Acquire resolves a device name ("" = default) to its current-epoch
// namespace and takes a reference on it. Callers must Release when done;
// the reference keeps a retiring epoch alive until its last request
// drains.
func (r *Registry) Acquire(name string) (*Namespace, error) {
	d, err := r.device(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	ns := d.current
	ns.refs.Add(1)
	d.mu.Unlock()
	return ns, nil
}

// UsageLedger resolves a device name ("" = default) to its cost ledger.
// The ledger is per-device and epoch-stable, so the returned pointer stays
// valid across calibrations.
func (r *Registry) UsageLedger(name string) (*usage.Ledger, error) {
	d, err := r.device(name)
	if err != nil {
		return nil, err
	}
	return d.usage, nil
}

// EvictionPolicy resolves a device name ("" = default) to its cost-aware
// eviction policy, nil when the registry runs pure LRU. Like the ledger it
// scores with, the policy is per-device and epoch-stable.
func (r *Registry) EvictionPolicy(name string) (*libstore.CostAwarePolicy, error) {
	d, err := r.device(name)
	if err != nil {
		return nil, err
	}
	return d.policy, nil
}

// device resolves a registered device name ("" = default) to its state.
func (r *Registry) device(name string) (*deviceState, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.def
	}
	d, ok := r.devices[name]
	if !ok {
		return nil, fmt.Errorf("devreg: unknown device %q", name)
	}
	return d, nil
}

// Names returns the registered device names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Status reports every registered device in registration order.
func (r *Registry) Status() []DeviceStatus {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	devs := make([]*deviceState, 0, len(names))
	for _, n := range names {
		devs = append(devs, r.devices[n])
	}
	r.mu.RUnlock()
	out := make([]DeviceStatus, 0, len(devs))
	for _, d := range devs {
		d.mu.Lock()
		ns := d.current
		st := DeviceStatus{
			Name:            d.name,
			Topology:        ns.Profile.Device.Name,
			Qubits:          ns.Profile.Device.NumQubits,
			Epoch:           ns.Epoch,
			Fingerprint:     ns.Profile.Fingerprint(),
			EpochAgeSeconds: time.Since(ns.CreatedAt).Seconds(),
			Recompile:       d.roll,
		}
		if d.draining != nil {
			st.Draining = true
			st.DrainingRefs = d.draining.refs.Load()
		}
		d.mu.Unlock()
		// Store stats outside the device lock: they take the store's lock.
		st.Library = ns.Store.Stats()
		st.Entries = st.Library.Entries
		out = append(out, st)
	}
	return out
}

// CalibrationUpdate describes a recalibration event: explicit new
// parameters, a relative drift, or both (explicit values win). This is
// also the wire format of POST /v1/devices/{name}/calibrate.
type CalibrationUpdate struct {
	// Calibration, when set, wholesale-replaces the device timing/error
	// model.
	Calibration *topology.Calibration `json:"calibration,omitempty"`
	// Hamiltonian, when set, wholesale-replaces the Hamiltonian
	// parameters (zero fields select model defaults).
	Hamiltonian *hamiltonian.Config `json:"hamiltonian,omitempty"`
	// DriftPct scales the current calibration and Hamiltonian by
	// (1 + pct/100) — the "everything moved a little after recalibration"
	// model. Applied before the explicit overrides.
	DriftPct float64 `json:"drift_pct,omitempty"`
}

func (u CalibrationUpdate) empty() bool {
	return u.Calibration == nil && u.Hamiltonian == nil && u.DriftPct == 0
}

// apply derives the next epoch's profile from the current one, rejecting
// physically meaningless results. A partial JSON calibration body zeroes
// every unspecified field — Calibration.Validate catches that instead of
// letting a free-gate, divide-by-zero-decoherence epoch go live.
func (u CalibrationUpdate) apply(p Profile) (Profile, error) {
	cal := p.Device.Calibration
	ham := p.Ham
	if u.DriftPct != 0 {
		cal = cal.Drift(u.DriftPct)
		ham = ham.Drift(u.DriftPct)
	}
	if u.Calibration != nil {
		cal = *u.Calibration
	}
	if u.Hamiltonian != nil {
		ham = *u.Hamiltonian
	}
	if err := cal.Validate(); err != nil {
		return Profile{}, fmt.Errorf("devreg: calibration update: %w", err)
	}
	// Zero Hamiltonian fields re-select the model defaults (documented),
	// but negative control parameters are never meaningful.
	if ham.MaxAmp < 0 || ham.Coupling < 0 {
		return Profile{}, fmt.Errorf("devreg: calibration update: negative Hamiltonian parameters (max_amp=%v coupling=%v)", ham.MaxAmp, ham.Coupling)
	}
	p.Device = p.Device.WithCalibration(cal)
	p.Ham = ham
	return p, nil
}

// Apply derives the profile a CalibrationUpdate produces, validating it —
// used by the server binary to reconstruct the current epoch's physics
// from a -calibration-file at boot, so a restart after a recalibration
// matches the fingerprint its shutdown snapshot was stamped with.
func (u CalibrationUpdate) Apply(p Profile) (Profile, error) { return u.apply(p) }

// RecompItem is one unit of the cross-epoch recompilation plan: an
// old-epoch entry (the warm-start seed), its cached training target, and
// the key it re-covers in the new epoch.
type RecompItem struct {
	Key     string
	Old     *precompile.Entry
	Unitary *cmat.Matrix
}

// Roll is an open calibration epoch transition. The caller (the server's
// background pipeline) re-trains Plan into New most-requested-first, then
// calls Finish. Old and New each hold a reference until Finish.
type Roll struct {
	Device string
	Epoch  int
	Old    *Namespace
	New    *Namespace
	// Plan lists the old epoch's covered entries ordered by per-entry hit
	// count descending — the most-requested pulses are re-trained first so
	// the hot set warms fastest.
	Plan []RecompItem

	dev  *deviceState
	once sync.Once
}

// Calibrate opens a new calibration epoch for a device: it applies the
// update to the device's profile, creates the new epoch's namespace (empty
// store, seed index parented on the old epoch's), swaps it in as current,
// and returns the recompilation plan over the old epoch's covered entries.
// Serving never blocks: requests acquired before the swap finish against
// the old namespace; new requests miss into the new epoch's cold/MST path
// until the roll re-covers their groups.
func (r *Registry) Calibrate(name string, u CalibrationUpdate) (*Roll, error) {
	if u.empty() {
		return nil, fmt.Errorf("devreg: empty calibration update (set calibration, hamiltonian, or drift_pct)")
	}
	d, err := r.device(name)
	if err != nil {
		return nil, err
	}

	d.mu.Lock()
	old := d.current
	p, aerr := u.apply(old.Profile)
	if aerr != nil {
		d.mu.Unlock()
		return nil, aerr
	}

	// Cap the cross-epoch chain at depth one: if an even older epoch is
	// still draining it is beyond seeding usefulness now — cut the old
	// epoch's parent link and let the stale namespace drain unobserved.
	old.Seeds.SetParent(nil)
	old.retiring.Store(true)

	epoch := old.Epoch + 1
	next := r.newNamespace(d, p, epoch, old.Seeds)
	d.draining = old
	d.current = next

	// Build the plan while holding the device lock so the epoch counter,
	// roll status, and plan are consistent; the store and index snapshots
	// below take only their own locks.
	roll := &Roll{Device: d.name, Epoch: epoch, Old: old, New: next, dev: d}
	old.refs.Add(1)
	next.refs.Add(1)
	lib := old.Store.Snapshot()
	for _, key := range old.Store.KeysByHits() {
		e := lib.Entries[key]
		if e == nil || e.Pulse == nil {
			continue
		}
		tgt, ok := old.Seeds.Unitary(key)
		if !ok {
			// Not indexed (e.g. no physical model for its size): nothing
			// to retrain toward; the group re-trains on first miss instead.
			continue
		}
		roll.Plan = append(roll.Plan, RecompItem{Key: key, Old: e, Unitary: tgt})
	}
	d.roll = RollStatus{Active: true, Epoch: epoch, Planned: len(roll.Plan)}
	d.mu.Unlock()
	return roll, nil
}

// Note records one processed plan item on the device's roll status.
func (roll *Roll) Note(skipped, failed, seeded bool, iterations int) {
	d := roll.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.roll.Epoch != roll.Epoch {
		return // a newer roll took over the status
	}
	switch {
	case skipped:
		d.roll.Skipped++
	case failed:
		d.roll.Failed++
	default:
		d.roll.Done++
	}
	if seeded {
		d.roll.WarmSeeded++
	}
	d.roll.Iterations += iterations
}

// Status returns the roll's device-level progress snapshot.
func (roll *Roll) Status() RollStatus {
	d := roll.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.roll
}

// Superseded reports whether a newer calibration has taken over the
// device: the remaining plan would train into an epoch that is already
// draining, so drivers should abandon it (Finish releases the
// references and lets the obsolete epoch retire).
func (roll *Roll) Superseded() bool {
	d := roll.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.roll.Epoch != roll.Epoch
}

// Finish closes the roll: marks it inactive and drops the references on
// both namespaces, which retires the old epoch once its last in-flight
// request drains. Idempotent.
func (roll *Roll) Finish() {
	roll.once.Do(func() {
		d := roll.dev
		d.mu.Lock()
		if d.roll.Epoch == roll.Epoch {
			d.roll.Active = false
		}
		d.mu.Unlock()
		roll.Old.Release()
		roll.New.Release()
	})
}
