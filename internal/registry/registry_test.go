package registry

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/vfs"
	"github.com/crestlab/crest/snapshot"
)

// trueCR is the synthetic ground-truth relation every test model is
// scored against.
func trueCR(f []float64) float64 {
	return 1 + 10*math.Exp(0.5*f[0]-0.3*f[1]+0.2*f[2])
}

// trainSamples draws n samples of the true relation (plus noise) with a
// deterministic seed.
func trainSamples(seed int64, n int) []core.Sample {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]core.Sample, n)
	for i := range samples {
		f := make([]float64, 5)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		cr := trueCR(f) * math.Exp(0.05*rng.NormFloat64())
		samples[i] = core.Sample{Features: f, CR: cr}
	}
	return samples
}

// goodEstimator trains on the true relation.
func goodEstimator(t testing.TB) *core.Estimator {
	t.Helper()
	est, err := core.Train(trainSamples(7, 80), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// feedbackStream yields deterministic (features, actual) observations of
// the true relation.
func feedbackStream(seed int64) func() ([]float64, float64) {
	rng := rand.New(rand.NewSource(seed))
	return func() ([]float64, float64) {
		f := make([]float64, 5)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		return f, trueCR(f)
	}
}

// writeVersion writes est into the lineage directory <root>/<name> the
// way `crest train -dir` does and returns its sequence number. The first
// version, written before Open, is model-000000, which Open adopts as v1;
// later ones are 2, 3, … and go live only through Promote.
func writeVersion(t testing.TB, fsys vfs.FS, root, name string, est *core.Estimator) int {
	t.Helper()
	path, err := snapshot.WriteNewFS(fsys, filepath.Join(root, name), est)
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := seqOf(filepath.Base(path))
	if !ok {
		t.Fatalf("wrote %s, which has no sequence number", path)
	}
	return seq
}

func openTest(t *testing.T, root string, mut func(*Config)) *Registry {
	t.Helper()
	cfg := Config{
		Root: root,
		Obs:  obs.NewRegistry(),
		Logf: t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestPublishAdoptAndRoute: a version written into a lineage directory
// before Open is adopted as v1, and requests route to it.
func TestPublishAdoptAndRoute(t *testing.T) {
	root := t.TempDir()
	writeVersion(t, vfs.OS, root, "default", goodEstimator(t))
	r := openTest(t, root, nil)
	rt, err := r.Route("") // empty routes to the default lineage
	if err != nil {
		t.Fatal(err)
	}
	if rt.Seq != 1 || rt.Engine == nil {
		t.Fatalf("route = %+v, want adopted v1", rt)
	}
	if _, err := r.Route("nope"); !errors.Is(err, crerr.ErrUnknownLineage) {
		t.Fatalf("unknown lineage error = %v, want ErrUnknownLineage", err)
	}
	info, err := r.Info("default")
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != 1 || len(info.Decisions) == 0 || info.Decisions[0].Action != "adopt" {
		t.Fatalf("info = %+v", info)
	}
}

// TestCorruptStateDegrades: a corrupt control file degrades to adopting
// the newest valid snapshot — the lineage keeps serving.
func TestCorruptStateDegrades(t *testing.T) {
	dir := t.TempDir()
	writeVersion(t, vfs.OS, dir, "default", goodEstimator(t))
	r := openTest(t, dir, nil)
	seq := writeVersion(t, vfs.OS, dir, "default", goodEstimator(t))
	r.Close()
	if err := os.WriteFile(filepath.Join(dir, "default", stateFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := openTest(t, dir, nil)
	info, err := r2.Info("default")
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != seq {
		t.Fatalf("adopted v%d, want newest valid v%d", info.Active, seq)
	}
	if len(info.Decisions) == 0 || info.Decisions[0].Action != "adopt" {
		t.Fatalf("adoption not logged: %+v", info.Decisions)
	}
}

// TestActiveCorruptFallsBack: when the recorded active snapshot is torn
// on disk, startup falls back (LKG first), marks the torn version bad,
// and logs an automatic rollback.
func TestActiveCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	writeVersion(t, vfs.OS, dir, "default", goodEstimator(t))
	r := openTest(t, dir, nil)
	second := writeVersion(t, vfs.OS, dir, "default", goodEstimator(t))
	if err := r.Promote("default", second); err != nil {
		t.Fatal(err)
	}
	r.Close()
	// Tear the active snapshot's payload.
	data, err := os.ReadFile(seqPath(filepath.Join(dir, "default"), second))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seqPath(filepath.Join(dir, "default"), second), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := openTest(t, dir, nil)
	info, err := r2.Info("default")
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != 1 {
		t.Fatalf("fell back to v%d, want lkg v1", info.Active)
	}
	if !contains(info.Bad, second) {
		t.Fatalf("torn v%d not marked bad: %v", second, info.Bad)
	}
	last := info.Decisions[len(info.Decisions)-1]
	if last.Action != "rollback" || !last.Auto {
		t.Fatalf("startup fallback not logged as auto rollback: %+v", last)
	}
}

// TestRetentionProtectsLifecyclePointers: writing and promoting many
// versions with a small keep budget never deletes the active or
// last-known-good snapshot.
func TestRetentionProtectsLifecyclePointers(t *testing.T) {
	dir := t.TempDir()
	est := goodEstimator(t)
	writeVersion(t, vfs.OS, dir, "default", est)
	r := openTest(t, dir, func(c *Config) { c.Keep = 2 })
	ldir := filepath.Join(dir, "default")
	// Each promote runs retention.
	for i := 0; i < 8; i++ {
		seq := writeVersion(t, vfs.OS, dir, "default", est)
		if err := r.Promote("default", seq); err != nil {
			t.Fatal(err)
		}
		info, err := r.Info("default")
		if err != nil {
			t.Fatal(err)
		}
		if info.Active != seq || info.LKG == 0 {
			t.Fatalf("after promoting v%d: active v%d, lkg v%d", seq, info.Active, info.LKG)
		}
		for _, seq := range []int{info.Active, info.LKG} {
			if _, err := os.Stat(seqPath(ldir, seq)); err != nil {
				t.Fatalf("retention deleted lifecycle pointer v%d: %v", seq, err)
			}
		}
	}
	entries, _ := os.ReadDir(ldir)
	files := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == snapshot.Ext {
			files++
		}
	}
	// active + lkg + keep-budget survivors: bounded, not 10.
	if files > 4 {
		t.Fatalf("retention kept %d snapshots with keep=2", files)
	}
}

// TestBadSetTrimmedWithPrunedVersions: every rollback marks the version
// it demotes bad, but once keep-N retention deletes a version's snapshot
// the mark is dropped too, so the persisted Bad set stays bounded by the
// retention budget instead of growing by one per rollback.
func TestBadSetTrimmedWithPrunedVersions(t *testing.T) {
	dir := t.TempDir()
	est := goodEstimator(t)
	writeVersion(t, vfs.OS, dir, "default", est)
	r := openTest(t, dir, func(c *Config) { c.Keep = 2 })
	for i := 0; i < 10; i++ {
		seq := writeVersion(t, vfs.OS, dir, "default", est)
		if err := r.Promote("default", seq); err != nil {
			t.Fatal(err)
		}
		if err := r.Rollback("default"); err != nil {
			t.Fatal(err)
		}
	}
	r2 := openTest(t, dir, func(c *Config) { c.Keep = 2 })
	for _, reg := range []*Registry{r, r2} {
		info, err := reg.Info("default")
		if err != nil {
			t.Fatal(err)
		}
		if info.Active != 1 {
			t.Fatalf("after 10 promote-rollback rounds: active v%d, want v1", info.Active)
		}
		if len(info.Bad) > 2 {
			t.Fatalf("after 10 rollbacks with keep=2: Bad = %v", info.Bad)
		}
		for _, seq := range info.Bad {
			if _, err := os.Stat(seqPath(filepath.Join(dir, "default"), seq)); err != nil {
				t.Errorf("Bad lists v%d, whose snapshot is gone: %v", seq, err)
			}
		}
	}
}

// TestBadSetDropsVersionsAlreadyGone: a persisted Bad set may list
// versions whose snapshots an earlier prune already deleted (state from
// before the set was trimmed, or a trim whose persist failed). The next
// prune drops those marks too, because it keeps only the versions still
// on disk, and the trimmed set survives a restart.
func TestBadSetDropsVersionsAlreadyGone(t *testing.T) {
	dir := t.TempDir()
	lineageDir := filepath.Join(dir, "default")
	est := goodEstimator(t)
	writeVersion(t, vfs.OS, dir, "default", est)
	openTest(t, dir, func(c *Config) { c.Keep = 2 })
	st, err := loadState(vfs.OS, lineageDir)
	if err != nil || st == nil {
		t.Fatalf("load state: %v, %v", st, err)
	}
	st.Bad = []int{41, 42}
	if err := saveState(vfs.OS, lineageDir, st); err != nil {
		t.Fatal(err)
	}

	r2 := openTest(t, dir, func(c *Config) { c.Keep = 2 })
	if info, err := r2.Info("default"); err != nil || len(info.Bad) != 2 {
		t.Fatalf("reopened: Bad = %v, err %v; want the two persisted marks", info.Bad, err)
	}
	if err := r2.Promote("default", writeVersion(t, vfs.OS, dir, "default", est)); err != nil {
		t.Fatal(err)
	}
	r3 := openTest(t, dir, func(c *Config) { c.Keep = 2 })
	for _, reg := range []*Registry{r2, r3} {
		info, err := reg.Info("default")
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Bad) != 0 {
			t.Fatalf("after a prune: Bad = %v, want the marks of missing snapshots dropped", info.Bad)
		}
	}
}

// TestManualRollback: a rollback restores the last-known-good version and
// marks the demoted one bad, the decision survives a restart, and no
// request routes to the demoted version afterward.
func TestManualRollback(t *testing.T) {
	dir := t.TempDir()
	writeVersion(t, vfs.OS, dir, "default", goodEstimator(t))
	r := openTest(t, dir, nil)
	second := writeVersion(t, vfs.OS, dir, "default", goodEstimator(t))
	if err := r.Promote("default", second); err != nil {
		t.Fatal(err)
	}
	if err := r.Rollback("default"); err != nil {
		t.Fatal(err)
	}
	// The rollback is durable: a fresh registry over the same directory
	// (opened without closing the first) still refuses the demoted version.
	r2 := openTest(t, dir, nil)
	for _, reg := range []*Registry{r, r2} {
		info, err := reg.Info("default")
		if err != nil {
			t.Fatal(err)
		}
		if info.Active != 1 || info.LKG != 0 {
			t.Fatalf("rollback left active v%d, lkg v%d; want v1 and none", info.Active, info.LKG)
		}
		if !contains(info.Bad, second) {
			t.Fatalf("rolled-back v%d not marked bad: %v", second, info.Bad)
		}
		if rt, err := reg.Route("default"); err != nil || rt.Seq != 1 {
			t.Fatalf("route after rollback = %+v, %v; want v1", rt, err)
		}
	}
	if err := r.Rollback("default"); err == nil {
		t.Fatal("second rollback should fail: no last-known-good left")
	}
}

// failStateRename passes every call through to the wrapped filesystem,
// except that while fail is set a rename onto a lineage's state file
// fails: the control state cannot be persisted, snapshots still load.
type failStateRename struct {
	vfs.FS
	fail bool
}

func (f *failStateRename) Rename(oldpath, newpath string) error {
	if f.fail && filepath.Base(newpath) == stateFile {
		return fmt.Errorf("rename %s: injected failure", newpath)
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestPromoteFailedPersistChangesNothing: a promote whose state write
// fails returns the error and leaves the lineage as it was. It used to
// log the failure and swap anyway, so Promote reported success, the
// process served v2, and a restart served v1.
func TestPromoteFailedPersistChangesNothing(t *testing.T) {
	dir := t.TempDir()
	writeVersion(t, vfs.OS, dir, "default", goodEstimator(t))
	fsys := &failStateRename{FS: vfs.OS}
	r := openTest(t, dir, func(c *Config) { c.FS = fsys })
	second := writeVersion(t, vfs.OS, dir, "default", goodEstimator(t))
	fsys.fail = true
	if err := r.Promote("default", second); err == nil {
		t.Fatal("promote reported success although its state write failed")
	}
	info, err := r.Info("default")
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != 1 || info.LKG != 0 || info.Decisions[len(info.Decisions)-1].Action != "adopt" {
		t.Fatalf("failed promote changed the lineage: %+v", info)
	}
	if rt, err := r.Route("default"); err != nil || rt.Seq != 1 {
		t.Fatalf("route after failed promote = %+v, %v; want v1", rt, err)
	}
	// Once the state can be written again, the same promote goes through.
	fsys.fail = false
	if err := r.Promote("default", second); err != nil {
		t.Fatal(err)
	}
	if rt, err := r.Route("default"); err != nil || rt.Seq != second {
		t.Fatalf("route after promote = %+v, %v; want v%d", rt, err, second)
	}
}

// TestPromoteRefusesSequenceBelowOne: versions start at 1. Sequence 0
// used to promote the model-000000 seed that Open had already adopted as
// v1, and −1 promoted the newest valid version, the active one, over
// itself, so a following rollback marked the serving version bad.
func TestPromoteRefusesSequenceBelowOne(t *testing.T) {
	dir := t.TempDir()
	writeVersion(t, vfs.OS, dir, "default", goodEstimator(t))
	r := openTest(t, dir, nil)
	for _, seq := range []int{0, -1} {
		err := r.Promote("default", seq)
		if err == nil {
			t.Errorf("promote v%d: accepted", seq)
		} else if want := fmt.Sprintf("v%d", seq); !strings.Contains(err.Error(), want) {
			t.Errorf("promote v%d: error %q does not name %s", seq, err, want)
		}
	}
	info, err := r.Info("default")
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != 1 || info.LKG != 0 || len(info.Bad) != 0 {
		t.Fatalf("refused promotes changed the lineage: %+v", info)
	}
	if err := r.Rollback("default"); err == nil {
		t.Fatal("rollback after refused promotes found a last-known-good version")
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestQuotaTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	q := newQuotas(QuotaConfig{
		Tenants: map[string]TenantQuota{"alice": {Rate: 1, Burst: 2}},
	}, clock)

	// Burst admits two, then denies with a Retry-After.
	for i := 0; i < 2; i++ {
		if _, ok := q.Allow("alice"); !ok {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	wait, ok := q.Allow("alice")
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if wait < time.Second {
		t.Fatalf("retry-after %v, want >= 1s", wait)
	}
	// Tokens accrue with time.
	now = now.Add(1500 * time.Millisecond)
	if _, ok := q.Allow("alice"); !ok {
		t.Fatal("request after refill denied")
	}
	// Unconfigured tenants ride the (unlimited) default.
	for i := 0; i < 100; i++ {
		if _, ok := q.Allow("bob"); !ok {
			t.Fatal("default quota should be unlimited")
		}
	}
}

// strangers returns n distinct tenant names that no quota configures.
func strangers(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	return names
}

func TestQuotaTenantTableBounded(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newQuotas(QuotaConfig{
		Default: TenantQuota{Rate: 1, Burst: 1},
	}, func() time.Time { return now })
	for _, name := range strangers(2 * maxTenants) {
		q.Allow(name)
	}
	if len(q.buckets) > maxTenants {
		t.Fatalf("bucket table grew to %d entries with maxTenants=%d", len(q.buckets), maxTenants)
	}
}

// TestQuotaConfiguredTenantOutsideTableBound: a tenant named in the
// config keeps its own quota however many other names came first. When
// configured tenants took table slots on first sight like any other
// name, maxTenants stranger names pushed them into the overflow bucket
// for good, with the Default quota: a 0.001 req/s tenant under an
// unlimited Default was admitted every time, and a 1e9 req/s tenant
// under a 1 req/s Default once in ten tries, an hour later.
func TestQuotaConfiguredTenantOutsideTableBound(t *testing.T) {
	for _, tc := range []struct {
		name         string
		def, quota   TenantQuota
		wantAdmitted int
	}{
		{"0.001 req/s tenant, unlimited Default", TenantQuota{}, TenantQuota{Rate: 0.001, Burst: 1}, 1},
		{"1e9 req/s tenant, 1 req/s Default", TenantQuota{Rate: 1, Burst: 1}, TenantQuota{Rate: 1e9}, 10},
	} {
		now := time.Unix(1000, 0)
		q := newQuotas(QuotaConfig{
			Default: tc.def,
			Tenants: map[string]TenantQuota{"vip": tc.quota},
		}, func() time.Time { return now })
		for _, name := range strangers(maxTenants) {
			q.Allow(name)
		}
		now = now.Add(time.Hour)
		admitted := 0
		for i := 0; i < 10; i++ {
			if _, ok := q.Allow("vip"); ok {
				admitted++
			}
		}
		if admitted != tc.wantAdmitted {
			t.Errorf("%s: admitted %d of 10 after %d stranger names, want %d", tc.name, admitted, maxTenants, tc.wantAdmitted)
		}
	}
}

// TestQuotaTableEvictsRefilledBuckets: once the buckets in a full table
// have refilled to their burst, a new name gets a bucket of its own
// instead of the overflow bucket every later name would share, and the
// table stays within maxTenants.
func TestQuotaTableEvictsRefilledBuckets(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newQuotas(QuotaConfig{
		Default: TenantQuota{Rate: 1, Burst: 2},
	}, func() time.Time { return now })
	for _, name := range strangers(maxTenants) {
		if _, ok := q.Allow(name); !ok {
			t.Fatalf("%s: first request denied", name)
		}
	}
	// No bucket has refilled yet: new names share one overflow bucket.
	admitted := 0
	for _, name := range []string{"n1", "n2", "n3"} {
		if _, ok := q.Allow(name); ok {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("three new names at a full table: %d admitted, want the overflow burst of 2", admitted)
	}
	now = now.Add(time.Hour)
	for _, name := range []string{"late1", "late2", "late3"} {
		for i := 0; i < 2; i++ {
			if _, ok := q.Allow(name); !ok {
				t.Fatalf("%s: request %d within its own burst denied", name, i)
			}
		}
	}
	if len(q.buckets) > maxTenants {
		t.Fatalf("bucket table grew to %d entries with maxTenants=%d", len(q.buckets), maxTenants)
	}
}

// TestOpenRefusesQuotaThatAdmitsNothing: a bucket admits only at a
// whole token, so a limited quota with a burst below one never held one,
// and its tenant got a 429 on every request for good: at 10 req/s and a
// burst of 0.5, one request per second was admitted 0 times in 100. Open
// refuses such a quota, and one whose numbers are not finite, and names
// the tenant.
func TestOpenRefusesQuotaThatAdmitsNothing(t *testing.T) {
	for _, tc := range []struct {
		quota QuotaConfig
		want  string
	}{
		{QuotaConfig{Tenants: map[string]TenantQuota{"alice": {Rate: 10, Burst: 0.5}}}, `tenant "alice"`},
		{QuotaConfig{Default: TenantQuota{Rate: 10, Burst: 0.5}}, "default quota"},
		{QuotaConfig{Tenants: map[string]TenantQuota{"bob": {Rate: 1, Burst: math.NaN()}}}, `tenant "bob"`},
		{QuotaConfig{Tenants: map[string]TenantQuota{"carol": {Rate: math.Inf(1)}}}, `tenant "carol"`},
	} {
		r, err := Open(Config{Root: t.TempDir(), Quota: tc.quota, Obs: obs.NewRegistry()})
		if err == nil {
			r.Close()
			t.Errorf("%+v: Open accepted a quota that admits nothing", tc.quota)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %q does not name %s", tc.quota, err, tc.want)
		}
	}
	// A burst of one whole request, or the default burst, is accepted.
	r := openTest(t, t.TempDir(), func(c *Config) {
		c.Quota = QuotaConfig{
			Default: TenantQuota{Rate: 0.5},
			Tenants: map[string]TenantQuota{"alice": {Rate: 10, Burst: 1}},
		}
	})
	if _, ok := r.AllowTenant("alice"); !ok {
		t.Fatal("alice's first request denied under a burst of one")
	}
}

// TestRegistryRouteZeroAlloc pins the per-request cost of the lifecycle
// layer: resolving a route, and the tenant quota check on both an
// admitted and a rejected tenant, allocate nothing.
func TestRegistryRouteZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	writeVersion(t, vfs.OS, dir, "default", goodEstimator(t))
	r := openTest(t, dir, func(c *Config) {
		c.Quota = QuotaConfig{Tenants: map[string]TenantQuota{
			"open":   {Rate: 1e9, Burst: 1 << 30},
			"closed": {Rate: 0.001, Burst: 1},
		}}
	})
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := r.Route("default"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Route: %.1f allocs/op, want 0", allocs)
	}

	r.AllowTenant("closed") // spend the one-token burst
	for _, tc := range []struct {
		tenant string
		admit  bool
	}{{"open", true}, {"closed", false}} {
		if _, ok := r.AllowTenant(tc.tenant); ok != tc.admit {
			t.Fatalf("AllowTenant(%q) admitted=%v, want %v", tc.tenant, ok, tc.admit)
		}
		if allocs := testing.AllocsPerRun(1000, func() { r.AllowTenant(tc.tenant) }); allocs != 0 {
			t.Fatalf("AllowTenant(%q): %.1f allocs/op, want 0", tc.tenant, allocs)
		}
	}
}

// TestConcurrentLifecycleHammer drives routing, feedback, version
// writes, promotes, rollbacks and introspection concurrently under -race.
// The assertions are the invariants: every route lands on a live engine,
// and every written version can be promoted.
func TestConcurrentLifecycleHammer(t *testing.T) {
	dir := t.TempDir()
	est := goodEstimator(t)
	writeVersion(t, vfs.OS, dir, "default", est)
	r := openTest(t, dir, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt, err := r.Route("default")
				if err != nil || rt.Engine == nil {
					t.Errorf("route: %v %+v", err, rt)
					return
				}
				if rt.Engine.Estimator() == nil {
					t.Error("route returned engine without estimator")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := feedbackStream(41)
		for {
			select {
			case <-stop:
				return
			default:
			}
			f, actual := next()
			if _, err := r.ObserveFeedback("default", f, actual); err != nil {
				t.Errorf("feedback: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// WriteNewFS directly: writeVersion's t.Fatal belongs to the
			// test goroutine.
			path, err := snapshot.WriteNewFS(vfs.OS, filepath.Join(dir, "default"), est)
			if err != nil {
				t.Errorf("write version: %v", err)
				return
			}
			seq, _ := seqOf(filepath.Base(path))
			if err := r.Promote("default", seq); err != nil {
				t.Errorf("promote v%d: %v", seq, err)
				return
			}
			if i%2 == 1 {
				if err := r.Rollback("default"); err != nil {
					t.Errorf("rollback from v%d: %v", seq, err)
					return
				}
			}
			r.Info("default")
			r.InfoAll()
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
