// Package registry hosts named model lineages over the snapshot package
// and runs their lifecycle: versioned per-lineage directories with a
// last-known-good pointer, atomic promote/rollback, a canary controller
// that splits a configurable fraction of traffic to a candidate version
// and compares MedAPE and conformal coverage against the active model
// (auto-promote on sustained win, auto-rollback on regression), and
// per-tenant admission quotas.
//
// Every lifecycle decision is logged, metered, and persisted atomically
// (state.json next to the snapshots), so a crash mid-canary resumes the
// traffic split and the comparison evidence instead of restarting the
// experiment — and a corrupt control file degrades to adopting the newest
// valid snapshot, never to refusing to serve.
package registry

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/vfs"
	"github.com/crestlab/crest/snapshot"
)

// DefaultLineage is the lineage requests without a model header route to.
const DefaultLineage = "default"

// Config configures a Registry.
type Config struct {
	// Root is the registry root directory; each immediate subdirectory is
	// one lineage holding model-NNNNNN.crsnap snapshots plus state.json.
	Root string

	// FS is the filesystem snapshots and control state go through
	// (vfs.OS when nil) — the seam the chaos suite injects faults at.
	FS vfs.FS

	// Workers sizes each version's batch engine (engine default when 0).
	Workers int

	// Keep is the per-lineage snapshot retention budget passed to
	// snapshot.PruneFS after registry writes; active, last-known-good and
	// candidate versions are always protected. 0 selects DefaultKeep;
	// negative disables pruning.
	Keep int

	// CanaryFraction is the fraction of requests routed to a canary
	// candidate (0 selects 0.1). Open refuses one that is NaN, negative or
	// above 1.
	CanaryFraction float64

	Quota QuotaConfig

	// Obs receives registry metrics (obs.Default() when nil).
	Obs *obs.Registry

	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)

	// Now is the clock (time.Now when nil): the one place a caller can
	// run the registry on another clock. Nothing sets it today.
	Now func() time.Time
}

// DefaultKeep is the snapshot retention budget when Config.Keep is zero.
const DefaultKeep = 5

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = vfs.OS
	}
	if c.Keep == 0 {
		c.Keep = DefaultKeep
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.CanaryFraction == 0 {
		c.CanaryFraction = 0.1
	}
	return c
}

// model is one loaded snapshot version with its serving engine.
type model struct {
	seq    int
	path   string
	est    *core.Estimator
	engine *batch.Engine
}

// lineage is one named model lineage. Its mutex guards the control state
// and the model pointers; the engines themselves are concurrency-safe and
// are used outside the lock.
type lineage struct {
	name string
	dir  string

	mu        sync.Mutex
	st        *lineageState
	active    *model
	candidate *model
	unsaved   int // feedback observations since the last state persist
}

// metrics is the registry's metric handle set.
type metrics struct {
	lineages       *obs.Gauge
	requests       *obs.Counter
	canaryRequests *obs.Counter
	publishes      *obs.Counter
	promotions     *obs.Counter
	rollbacks      *obs.Counter
	decisionSecs   *obs.Histogram
	tenantRequests *obs.Counter
	tenantRejects  *obs.Counter
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		lineages:       r.Gauge("registry_lineages"),
		requests:       r.Counter("registry_requests_total"),
		canaryRequests: r.Counter("registry_canary_requests_total"),
		publishes:      r.Counter("registry_publishes_total"),
		promotions:     r.Counter("registry_promotions_total"),
		rollbacks:      r.Counter("registry_rollbacks_total"),
		decisionSecs:   r.Histogram("registry_decision_seconds"),
		tenantRequests: r.Counter("tenant_requests_total"),
		tenantRejects:  r.Counter("tenant_quota_rejections_total"),
	}
}

// Registry hosts the lineages under one root directory.
type Registry struct {
	cfg Config
	obs metrics

	mu       sync.RWMutex
	lineages map[string]*lineage

	quotas *Quotas
}

// Open loads every lineage under cfg.Root (each immediate subdirectory
// holding at least one loadable snapshot becomes a lineage) and resumes
// any persisted canary rollouts. A missing root is an empty registry, not
// an error: Publish creates lineages on demand.
func Open(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	if cfg.Root == "" {
		return nil, errors.New("registry: no root directory")
	}
	if f := cfg.CanaryFraction; !(f > 0 && f <= 1) {
		return nil, fmt.Errorf("registry: canary fraction %g is outside (0, 1]", f)
	}
	if err := cfg.Quota.validate(); err != nil {
		return nil, err
	}
	r := &Registry{
		cfg:      cfg,
		obs:      newMetrics(cfg.Obs),
		lineages: make(map[string]*lineage),
		quotas:   newQuotas(cfg.Quota, cfg.Now),
	}
	entries, err := cfg.FS.ReadDir(cfg.Root)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("registry: scan %s: %w", cfg.Root, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		ln, err := r.loadLineage(e.Name())
		if err != nil {
			cfg.Logf("registry: skipping lineage %s: %v", e.Name(), err)
			continue
		}
		if ln != nil {
			r.lineages[ln.name] = ln
		}
	}
	r.obs.lineages.Set(int64(len(r.lineages)))
	return r, nil
}

// Close persists every lineage's control state.
func (r *Registry) Close() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var firstErr error
	for _, ln := range r.lineages {
		ln.mu.Lock()
		err := saveState(r.cfg.FS, ln.dir, ln.st)
		ln.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// loadLineage restores one lineage directory: control state when present
// (resuming any canary), adopt-newest when the control state is missing
// or corrupt, and fallback across corrupt snapshots when the recorded
// active version does not load. Returns (nil, nil) when the directory
// holds nothing loadable.
func (r *Registry) loadLineage(name string) (*lineage, error) {
	dir := filepath.Join(r.cfg.Root, name)
	ln := &lineage{name: name, dir: dir}

	st, err := loadState(r.cfg.FS, dir)
	if err != nil {
		// Corrupt control state: degrade to adopt-newest, keep serving.
		r.cfg.Logf("registry: lineage %s: %v; adopting newest valid snapshot", name, err)
		st = nil
	}
	if st == nil {
		m, lerr := r.loadSeq(dir, -1, nil)
		if errors.Is(lerr, snapshot.ErrNoSnapshots) {
			// Nothing in the registry's own sequence namespace: the dir
			// may still hold externally-written snapshots (model-000000
			// from `crest train -dir`, or arbitrary *.crsnap names).
			// Re-sequence the newest valid one instead of referencing it.
			est, from, ferr := snapshot.LoadLatestFS(r.cfg.FS, dir)
			if ferr != nil {
				if errors.Is(ferr, snapshot.ErrNoSnapshots) {
					return nil, nil
				}
				return nil, ferr
			}
			if m, lerr = r.writeNext(dir, est); lerr != nil {
				return nil, lerr
			}
			r.cfg.Logf("registry: lineage %s: adopted external snapshot %s as v%d", name, from, m.seq)
		} else if lerr != nil {
			return nil, lerr
		}
		ln.st = &lineageState{Active: m.seq}
		ln.st.logDecision(Decision{
			Time: r.cfg.Now(), Action: "adopt", To: m.seq, Auto: true,
			Reason: "no control state; adopted newest valid snapshot",
		})
		ln.active = m
		if err := saveState(r.cfg.FS, dir, ln.st); err != nil {
			r.cfg.Logf("registry: lineage %s: %v", name, err)
		}
		return ln, nil
	}

	ln.st = st
	active, lerr := r.loadSeq(dir, st.Active, nil)
	if lerr != nil {
		// The recorded active version is gone or corrupt: fall back to
		// LKG, then to the newest valid snapshot not marked bad.
		r.cfg.Logf("registry: lineage %s: active v%d unloadable (%v); falling back", name, st.Active, lerr)
		from := st.Active
		if st.LKG != 0 {
			if m, err := r.loadSeq(dir, st.LKG, nil); err == nil {
				active = m
			}
		}
		if active == nil {
			skip := append([]int{st.Active}, st.Bad...)
			m, err := r.loadSeq(dir, -1, skip)
			if err != nil {
				return nil, fmt.Errorf("registry: lineage %s has no loadable version: %w", name, err)
			}
			active = m
		}
		st.Bad = append(st.Bad, from)
		st.Active = active.seq
		if st.LKG == active.seq {
			st.LKG = 0
		}
		st.Canary = nil
		st.logDecision(Decision{
			Time: r.cfg.Now(), Action: "rollback", From: from, To: active.seq, Auto: true,
			Reason: "active version unloadable at startup",
		})
		r.obs.rollbacks.Inc()
		if err := saveState(r.cfg.FS, dir, st); err != nil {
			r.cfg.Logf("registry: lineage %s: %v", name, err)
		}
	}
	ln.active = active

	if st.Canary != nil {
		cand, cerr := r.loadSeq(dir, st.Canary.Candidate, nil)
		if cerr != nil {
			r.cfg.Logf("registry: lineage %s: candidate v%d unloadable (%v); dropping canary",
				name, st.Canary.Candidate, cerr)
			st.Bad = append(st.Bad, st.Canary.Candidate)
			st.logDecision(Decision{
				Time: r.cfg.Now(), Action: "rollback", From: st.Canary.Candidate, Auto: true,
				Reason: "candidate unloadable at startup",
			})
			r.obs.rollbacks.Inc()
			st.Canary = nil
			if err := saveState(r.cfg.FS, dir, st); err != nil {
				r.cfg.Logf("registry: lineage %s: %v", name, err)
			}
		} else {
			ln.candidate = cand
		}
	}
	return ln, nil
}

// seqPath is the canonical snapshot path of sequence number seq.
func seqPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("model-%06d%s", seq, snapshot.Ext))
}

// writeNext saves est under the next free registry sequence number.
// Registry sequences start at 1 — 0 is the "none" sentinel of the
// last-known-good pointer — so externally-seeded model-000000 files are
// re-sequenced on adoption rather than referenced.
func (r *Registry) writeNext(dir string, est *core.Estimator) (*model, error) {
	entries, err := r.cfg.FS.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("registry: scan %s: %w", dir, err)
	}
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: create %s: %w", dir, err)
		}
	}
	seq := 1
	for _, e := range entries {
		if n, ok := seqOf(e.Name()); ok && n >= seq {
			seq = n + 1
		}
	}
	path := seqPath(dir, seq)
	if err := snapshot.SaveFS(r.cfg.FS, path, est); err != nil {
		return nil, err
	}
	return r.newModel(seq, path, est), nil
}

// loadSeq loads version seq from dir, or — when seq is negative — the
// newest valid snapshot whose sequence is not in skip.
func (r *Registry) loadSeq(dir string, seq int, skip []int) (*model, error) {
	if seq >= 0 {
		path := seqPath(dir, seq)
		est, err := snapshot.LoadFS(r.cfg.FS, path)
		if err != nil {
			return nil, err
		}
		return r.newModel(seq, path, est), nil
	}
	skipSet := make(map[int]bool, len(skip))
	for _, s := range skip {
		skipSet[s] = true
	}
	entries, err := r.cfg.FS.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, snapshot.ErrNoSnapshots
		}
		return nil, err
	}
	// Highest sequence first: registry snapshots are sequence-ordered by
	// construction, which survives mtime truncation.
	var seqs []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := seqOf(e.Name()); ok && n >= 1 && !skipSet[n] {
			seqs = append(seqs, n)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	for _, n := range seqs {
		path := seqPath(dir, n)
		est, lerr := snapshot.LoadFS(r.cfg.FS, path)
		if lerr != nil {
			continue
		}
		return r.newModel(n, path, est), nil
	}
	return nil, snapshot.ErrNoSnapshots
}

// seqOf extracts the sequence number from a model-NNNNNN.crsnap name.
func seqOf(name string) (int, bool) {
	if filepath.Ext(name) != snapshot.Ext {
		return 0, false
	}
	base := name[:len(name)-len(snapshot.Ext)]
	const prefix = "model-"
	if len(base) <= len(prefix) || base[:len(prefix)] != prefix {
		return 0, false
	}
	n := 0
	for _, c := range base[len(prefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func (r *Registry) newModel(seq int, path string, est *core.Estimator) *model {
	eng := batch.New(est, nil, r.cfg.Workers)
	eng.SetObs(r.cfg.Obs)
	return &model{seq: seq, path: path, est: est, engine: eng}
}

// lineage returns the named lineage, resolving "" to DefaultLineage.
func (r *Registry) lineage(name string) (*lineage, error) {
	if name == "" {
		name = DefaultLineage
	}
	r.mu.RLock()
	ln := r.lineages[name]
	r.mu.RUnlock()
	if ln == nil {
		return nil, fmt.Errorf("registry: %w: %q", crerr.ErrUnknownLineage, name)
	}
	return ln, nil
}

// ActiveEngine returns the named lineage's active serving engine without
// registering a routed request — the introspection companion of Route.
func (r *Registry) ActiveEngine(name string) (*batch.Engine, error) {
	ln, err := r.lineage(name)
	if err != nil {
		return nil, err
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return ln.active.engine, nil
}

// Lineages lists the hosted lineage names, sorted.
func (r *Registry) Lineages() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.lineages))
	for name := range r.lineages {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Route is one routing decision: the engine a request should be served
// by, and whether it was split to the canary candidate.
type Route struct {
	Lineage string
	Seq     int
	Canary  bool
	Engine  *batch.Engine
}

// Route picks the serving version for one request of the named lineage
// ("" routes to DefaultLineage). When a canary is in flight, a
// deterministic counter-based split sends the configured fraction to the
// candidate: request n is canary exactly when ⌊f·(n+1)⌋ > ⌊f·n⌋, so the
// split is exact over any window and resumes from the persisted counter
// after a restart.
func (r *Registry) Route(name string) (Route, error) {
	ln, err := r.lineage(name)
	if err != nil {
		return Route{}, err
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	r.obs.requests.Inc()
	rt := Route{Lineage: ln.name, Seq: ln.st.Active, Engine: ln.active.engine}
	if c := ln.st.Canary; c != nil && ln.candidate != nil {
		n := c.Requests
		c.Requests++
		if uint64(c.Fraction*float64(n+1)) > uint64(c.Fraction*float64(n)) {
			c.CanaryRequests++
			r.obs.canaryRequests.Inc()
			rt.Seq = ln.candidate.seq
			rt.Canary = true
			rt.Engine = ln.candidate.engine
		}
	}
	return rt, nil
}

// Publish writes est as a new version of the named lineage (creating the
// lineage when absent). The first version of a lineage becomes active
// immediately; later versions start a canary rollout at the configured
// fraction, superseding any candidate already in flight. Returns the new
// sequence number.
func (r *Registry) Publish(name string, est *core.Estimator) (int, error) {
	if name == "" {
		name = DefaultLineage
	}
	if err := validLineageName(name); err != nil {
		return 0, err
	}
	r.mu.Lock()
	ln := r.lineages[name]
	if ln == nil {
		ln = &lineage{name: name, dir: filepath.Join(r.cfg.Root, name), st: &lineageState{}}
		r.lineages[name] = ln
		r.obs.lineages.Set(int64(len(r.lineages)))
	}
	r.mu.Unlock()

	ln.mu.Lock()
	defer ln.mu.Unlock()
	m, err := r.writeNext(ln.dir, est)
	if err != nil {
		return 0, err
	}
	seq := m.seq
	now := r.cfg.Now()
	prev := ln.st
	st := *prev // shallow copy; decision slices re-appended below
	if ln.active == nil {
		st.Active = seq
		st.logDecision(Decision{Time: now, Action: "adopt", To: seq, Reason: "first version"})
	} else {
		reason := "published candidate"
		if c := st.Canary; c != nil {
			reason = fmt.Sprintf("superseded candidate v%d", c.Candidate)
		}
		st.Canary = &canaryState{Candidate: seq, Fraction: r.cfg.CanaryFraction}
		st.logDecision(Decision{Time: now, Action: "publish", To: seq, Reason: reason})
	}
	if err := saveState(r.cfg.FS, ln.dir, &st); err != nil {
		return 0, err
	}
	ln.st = &st
	if ln.active == nil {
		ln.active = m
	} else {
		ln.candidate = m
	}
	r.obs.publishes.Inc()
	r.cfg.Logf("registry: %s: published v%d", name, seq)
	r.pruneLocked(ln)
	return seq, nil
}

// Promote makes version seq the active model of the named lineage,
// preserving the previous active as last-known-good. Promoting the
// in-flight candidate ends the canary; promoting any other stored version
// is the manual override path. The control state is persisted before the
// in-memory swap, so a crash between the two replays the promote, never
// loses it.
func (r *Registry) Promote(name string, seq int) error {
	ln, err := r.lineage(name)
	if err != nil {
		return err
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if seq == ln.st.Active {
		return fmt.Errorf("registry: %s: v%d is already active", ln.name, seq)
	}
	var m *model
	if ln.candidate != nil && ln.candidate.seq == seq {
		m = ln.candidate
	} else {
		m, err = r.loadSeq(ln.dir, seq, nil)
		if err != nil {
			return fmt.Errorf("registry: %s: cannot promote v%d: %w", ln.name, seq, err)
		}
	}
	r.promoteLocked(ln, m, false, "manual promote")
	return nil
}

// promoteLocked installs m as active. Caller holds ln.mu.
func (r *Registry) promoteLocked(ln *lineage, m *model, auto bool, reason string) {
	st := *ln.st
	st.LKG = st.Active
	st.Active = m.seq
	st.Canary = nil
	st.logDecision(Decision{
		Time: r.cfg.Now(), Action: "promote", From: st.LKG, To: m.seq, Auto: auto, Reason: reason,
	})
	if err := saveState(r.cfg.FS, ln.dir, &st); err != nil {
		r.cfg.Logf("registry: %s: promote persist failed: %v", ln.name, err)
	}
	ln.st = &st
	ln.active = m
	ln.candidate = nil
	r.obs.promotions.Inc()
	r.cfg.Logf("registry: %s: promoted v%d (lkg v%d, %s)", ln.name, m.seq, st.LKG, reason)
	r.pruneLocked(ln)
}

// Rollback reverts the named lineage: an in-flight canary is aborted
// (candidate marked bad); otherwise the active version is rolled back to
// last-known-good and marked bad. Errors when there is nothing to roll
// back to.
func (r *Registry) Rollback(name string) error {
	ln, err := r.lineage(name)
	if err != nil {
		return err
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.st.Canary != nil {
		r.rollbackCanaryLocked(ln, false, "manual rollback")
		return nil
	}
	if ln.st.LKG == 0 {
		return fmt.Errorf("registry: %s: no last-known-good version to roll back to", ln.name)
	}
	lkg, err := r.loadSeq(ln.dir, ln.st.LKG, nil)
	if err != nil {
		return fmt.Errorf("registry: %s: last-known-good v%d unloadable: %w", ln.name, ln.st.LKG, err)
	}
	st := *ln.st
	from := st.Active
	st.Active = lkg.seq
	st.LKG = 0
	st.Bad = append(append([]int(nil), st.Bad...), from)
	st.Canary = nil
	st.logDecision(Decision{
		Time: r.cfg.Now(), Action: "rollback", From: from, To: lkg.seq, Reason: "manual rollback",
	})
	if err := saveState(r.cfg.FS, ln.dir, &st); err != nil {
		return err
	}
	ln.st = &st
	ln.active = lkg
	ln.candidate = nil
	r.obs.rollbacks.Inc()
	r.cfg.Logf("registry: %s: rolled back v%d -> v%d", ln.name, from, lkg.seq)
	r.pruneLocked(ln)
	return nil
}

// rollbackCanaryLocked aborts the in-flight canary, marking the candidate
// bad. Caller holds ln.mu.
func (r *Registry) rollbackCanaryLocked(ln *lineage, auto bool, reason string) {
	cand := ln.st.Canary.Candidate
	st := *ln.st
	st.Bad = append(append([]int(nil), st.Bad...), cand)
	st.Canary = nil
	st.logDecision(Decision{
		Time: r.cfg.Now(), Action: "rollback", From: cand, To: st.Active, Auto: auto, Reason: reason,
	})
	if err := saveState(r.cfg.FS, ln.dir, &st); err != nil {
		r.cfg.Logf("registry: %s: rollback persist failed: %v", ln.name, err)
	}
	ln.st = &st
	ln.candidate = nil
	r.obs.rollbacks.Inc()
	r.cfg.Logf("registry: %s: rolled back candidate v%d (%s)", ln.name, cand, reason)
	r.pruneLocked(ln)
}

// pruneLocked enforces keep-N retention on the lineage directory,
// protecting the active, last-known-good and candidate snapshot files,
// then keeps in the Bad set only the versions whose snapshot is still on
// disk, so the set stays as bounded as the directory — marks left by
// earlier prunes or by a failed persist included. Caller holds ln.mu.
// Prune failures are logged, never fatal: retention is advisory, serving
// state is not.
func (r *Registry) pruneLocked(ln *lineage) {
	if r.cfg.Keep < 0 {
		return
	}
	protect := []string{seqPath(ln.dir, ln.st.Active)}
	if ln.st.LKG != 0 {
		protect = append(protect, seqPath(ln.dir, ln.st.LKG))
	}
	if ln.st.Canary != nil {
		protect = append(protect, seqPath(ln.dir, ln.st.Canary.Candidate))
	}
	if _, err := snapshot.PruneFS(r.cfg.FS, ln.dir, r.cfg.Keep, protect...); err != nil {
		r.cfg.Logf("registry: %s: prune: %v", ln.name, err)
	}
	if len(ln.st.Bad) == 0 {
		return
	}
	entries, err := r.cfg.FS.ReadDir(ln.dir)
	if err != nil {
		r.cfg.Logf("registry: %s: scan for bad set: %v", ln.name, err)
		return
	}
	onDisk := make(map[string]bool, len(entries))
	for _, e := range entries {
		onDisk[e.Name()] = true
	}
	var bad []int
	for _, seq := range ln.st.Bad {
		if onDisk[filepath.Base(seqPath(ln.dir, seq))] {
			bad = append(bad, seq)
		}
	}
	if len(bad) == len(ln.st.Bad) {
		return
	}
	st := *ln.st
	st.Bad = bad
	if err := saveState(r.cfg.FS, ln.dir, &st); err != nil {
		r.cfg.Logf("registry: %s: persist pruned bad set: %v", ln.name, err)
		return
	}
	ln.st = &st
}

// validLineageName rejects names that would escape the root directory or
// collide with control files.
func validLineageName(name string) error {
	if name == "" || name != filepath.Base(name) || name[0] == '.' {
		return fmt.Errorf("registry: invalid lineage name %q", name)
	}
	return nil
}

// AllowTenant runs one request of the given tenant through its admission
// quota. It returns ok=true when admitted; otherwise the duration the
// tenant should wait before retrying (the 429 Retry-After value). The
// empty tenant is billed to the default bucket.
func (r *Registry) AllowTenant(tenant string) (time.Duration, bool) {
	r.obs.tenantRequests.Inc()
	wait, ok := r.quotas.Allow(tenant)
	if !ok {
		r.obs.tenantRejects.Inc()
	}
	return wait, ok
}

// median returns the median of xs (NaN when empty). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
