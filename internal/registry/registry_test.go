package registry

import (
	"context"
	"errors"
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
	"github.com/crestlab/crest/internal/grid"
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

// badEstimator trains on scrambled labels: features carry no information
// about its CRs, so its predictions regress hard against the truth.
func badEstimator(t testing.TB) *core.Estimator {
	t.Helper()
	samples := trainSamples(7, 80)
	rng := rand.New(rand.NewSource(13))
	rng.Shuffle(len(samples), func(i, j int) {
		samples[i].CR, samples[j].CR = samples[j].CR, samples[i].CR
	})
	est, err := core.Train(samples, core.Config{})
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

// fastCanary is a canary config small enough for tests to drive decisions
// in tens of observations.
func fastCanary() CanaryConfig {
	return CanaryConfig{
		Fraction:     0.25,
		Window:       32,
		MinObs:       8,
		EvalEvery:    4,
		SustainEvals: 2,
		PersistEvery: 4,
	}
}

func openTest(t *testing.T, root string, mut func(*Config)) *Registry {
	t.Helper()
	cfg := Config{
		Root:   root,
		Canary: fastCanary(),
		Obs:    obs.NewRegistry(),
		Logf:   t.Logf,
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

func TestPublishAdoptAndRoute(t *testing.T) {
	r := openTest(t, t.TempDir(), nil)
	seq, err := r.Publish("default", goodEstimator(t))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := r.Route("") // empty routes to the default lineage
	if err != nil {
		t.Fatal(err)
	}
	if rt.Seq != seq || rt.Canary || rt.Engine == nil {
		t.Fatalf("route = %+v, want active v%d", rt, seq)
	}
	if _, err := r.Route("nope"); !errors.Is(err, crerr.ErrUnknownLineage) {
		t.Fatalf("unknown lineage error = %v, want ErrUnknownLineage", err)
	}
	info, err := r.Info("default")
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != seq || len(info.Decisions) == 0 || info.Decisions[0].Action != "adopt" {
		t.Fatalf("info = %+v", info)
	}
}

// TestCanarySplitDeterministic: fraction f sends exactly ⌊f·n⌋ of any n
// requests to the candidate.
func TestCanarySplitDeterministic(t *testing.T) {
	r := openTest(t, t.TempDir(), nil)
	if _, err := r.Publish("default", goodEstimator(t)); err != nil {
		t.Fatal(err)
	}
	cand, err := r.Publish("default", goodEstimator(t))
	if err != nil {
		t.Fatal(err)
	}
	canaries := 0
	for i := 0; i < 100; i++ {
		rt, err := r.Route("default")
		if err != nil {
			t.Fatal(err)
		}
		if rt.Canary {
			canaries++
			if rt.Seq != cand {
				t.Fatalf("canary routed to v%d, want candidate v%d", rt.Seq, cand)
			}
		}
	}
	if canaries != 25 {
		t.Fatalf("canary fraction 0.25 over 100 requests gave %d, want exactly 25", canaries)
	}
}

// TestCanaryAutoPromote: a candidate as good as the active model wins the
// comparison and is promoted after the sustain threshold, preserving the
// previous active as last-known-good.
func TestCanaryAutoPromote(t *testing.T) {
	r := openTest(t, t.TempDir(), nil)
	active, _ := r.Publish("default", goodEstimator(t))
	cand, err := r.Publish("default", goodEstimator(t))
	if err != nil {
		t.Fatal(err)
	}
	next := feedbackStream(21)
	promoted := false
	for i := 0; i < 200 && !promoted; i++ {
		f, actual := next()
		res, err := r.ObserveFeedback("default", f, actual)
		if err != nil {
			t.Fatal(err)
		}
		switch res.Decision {
		case "promote":
			promoted = true
		case "rollback":
			t.Fatalf("equal-quality candidate rolled back at obs %d", i)
		}
	}
	if !promoted {
		t.Fatal("candidate never promoted")
	}
	info, _ := r.Info("default")
	if info.Active != cand || info.LKG != active || info.Canary != nil {
		t.Fatalf("post-promote info = %+v, want active v%d lkg v%d", info, cand, active)
	}
	last := info.Decisions[len(info.Decisions)-1]
	if last.Action != "promote" || !last.Auto || !strings.Contains(last.Reason, "medape") {
		t.Fatalf("promote decision not logged: %+v", last)
	}
}

// TestCanaryAutoRollback is the acceptance scenario: a deliberately
// regressed candidate is auto-rolled back, the decision is durable, and
// zero requests route to it afterward.
func TestCanaryAutoRollback(t *testing.T) {
	dir := t.TempDir()
	r := openTest(t, dir, nil)
	active, _ := r.Publish("default", goodEstimator(t))
	bad, err := r.Publish("default", badEstimator(t))
	if err != nil {
		t.Fatal(err)
	}
	next := feedbackStream(22)
	rolledBack := false
	for i := 0; i < 300 && !rolledBack; i++ {
		f, actual := next()
		res, err := r.ObserveFeedback("default", f, actual)
		if err != nil {
			t.Fatal(err)
		}
		switch res.Decision {
		case "rollback":
			rolledBack = true
		case "promote":
			t.Fatalf("regressed candidate promoted at obs %d", i)
		}
	}
	if !rolledBack {
		t.Fatal("regressed candidate never rolled back")
	}
	// Zero requests served by the rejected candidate afterward.
	for i := 0; i < 200; i++ {
		rt, err := r.Route("default")
		if err != nil {
			t.Fatal(err)
		}
		if rt.Seq == bad || rt.Canary {
			t.Fatalf("request %d routed to rolled-back v%d", i, rt.Seq)
		}
		if rt.Seq != active {
			t.Fatalf("request %d routed to v%d, want active v%d", i, rt.Seq, active)
		}
	}
	// The rollback is durable: a fresh registry over the same directory
	// still refuses the bad version.
	r2 := openTest(t, dir, nil)
	info, err := r2.Info("default")
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != active || info.Canary != nil {
		t.Fatalf("reopened info = %+v, want active v%d, no canary", info, active)
	}
	found := false
	for _, b := range info.Bad {
		found = found || b == bad
	}
	if !found {
		t.Fatalf("bad list %v does not record rejected v%d", info.Bad, bad)
	}
}

// TestRestartMidCanary: a crash during a canary resumes the rollout — the
// candidate, the traffic-split position and the comparison window all
// come back from persisted state, and the rollout still concludes.
func TestRestartMidCanary(t *testing.T) {
	dir := t.TempDir()
	r := openTest(t, dir, nil)
	r.Publish("default", goodEstimator(t))
	cand, _ := r.Publish("default", goodEstimator(t))
	for i := 0; i < 40; i++ {
		r.Route("default")
	}
	next := feedbackStream(23)
	// Stay under MinObs=8 so no decision fires, but cross PersistEvery=4
	// so the window is durable.
	for i := 0; i < 6; i++ {
		f, actual := next()
		if _, err := r.ObserveFeedback("default", f, actual); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := r.Info("default")
	if before.Canary == nil {
		t.Fatal("no canary in flight before restart")
	}
	// Simulated crash: no Close, just reopen from disk.
	r2 := openTest(t, dir, nil)
	after, err := r2.Info("default")
	if err != nil {
		t.Fatal(err)
	}
	if after.Canary == nil {
		t.Fatal("canary did not survive restart")
	}
	if after.Canary.Candidate != cand {
		t.Fatalf("resumed candidate v%d, want v%d", after.Canary.Candidate, cand)
	}
	if after.Canary.Observed < 4 {
		t.Fatalf("comparison window lost: observed %d, want >= 4 (persisted)", after.Canary.Observed)
	}
	if after.Canary.Requests == 0 {
		t.Fatal("traffic-split counter lost across restart")
	}
	// The split resumes mid-sequence rather than restarting at zero:
	// the next 40 requests produce the canary share of positions n..n+40
	// of the deterministic sequence, not of positions 0..40.
	resumedAt := after.Canary.Requests
	for i := 0; i < 40; i++ {
		if _, err := r2.Route("default"); err != nil {
			t.Fatal(err)
		}
	}
	stat, _ := r2.Info("default")
	if got := stat.Canary.Requests; got != resumedAt+40 {
		t.Fatalf("split counter = %d, want %d", got, resumedAt+40)
	}
	// And the rollout still concludes after the restart.
	decided := ""
	for i := 0; i < 300 && decided == ""; i++ {
		f, actual := next()
		res, err := r2.ObserveFeedback("default", f, actual)
		if err != nil {
			t.Fatal(err)
		}
		decided = res.Decision
	}
	if decided != "promote" {
		t.Fatalf("resumed rollout concluded %q, want promote", decided)
	}
}

// TestCorruptStateDegrades: a corrupt control file degrades to adopting
// the newest valid snapshot — the lineage keeps serving.
func TestCorruptStateDegrades(t *testing.T) {
	dir := t.TempDir()
	r := openTest(t, dir, nil)
	r.Publish("default", goodEstimator(t))
	seq, _ := r.Publish("default", goodEstimator(t))
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
	r := openTest(t, dir, nil)
	first, _ := r.Publish("default", goodEstimator(t))
	cand, _ := r.Publish("default", goodEstimator(t))
	if err := r.Promote("default", cand); err != nil {
		t.Fatal(err)
	}
	r.Close()
	// Tear the active snapshot's payload.
	data, err := os.ReadFile(seqPath(filepath.Join(dir, "default"), cand))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seqPath(filepath.Join(dir, "default"), cand), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := openTest(t, dir, nil)
	info, err := r2.Info("default")
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != first {
		t.Fatalf("fell back to v%d, want lkg v%d", info.Active, first)
	}
	last := info.Decisions[len(info.Decisions)-1]
	if last.Action != "rollback" || !last.Auto {
		t.Fatalf("startup fallback not logged as auto rollback: %+v", last)
	}
}

// TestRetentionProtectsLifecyclePointers: churning many versions with a
// small keep budget never deletes the active or last-known-good snapshot.
func TestRetentionProtectsLifecyclePointers(t *testing.T) {
	dir := t.TempDir()
	r := openTest(t, dir, func(c *Config) { c.Keep = 2 })
	est := goodEstimator(t)
	first, _ := r.Publish("default", est)
	second, _ := r.Publish("default", est)
	if err := r.Promote("default", second); err != nil {
		t.Fatal(err)
	}
	// Churn candidates; each publish runs retention.
	for i := 0; i < 6; i++ {
		if _, err := r.Publish("default", est); err != nil {
			t.Fatal(err)
		}
	}
	ldir := filepath.Join(dir, "default")
	for _, seq := range []int{first, second} {
		if _, err := os.Stat(seqPath(ldir, seq)); err != nil {
			t.Fatalf("retention deleted lifecycle pointer v%d: %v", seq, err)
		}
	}
	entries, _ := os.ReadDir(ldir)
	files := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == snapshot.Ext {
			files++
		}
	}
	// active + lkg + candidate + keep-budget survivors: bounded, not 8.
	if files > 5 {
		t.Fatalf("retention kept %d snapshots with keep=2", files)
	}
}

// TestBadSetTrimmedWithPrunedVersions: every canary rollback marks its
// candidate bad, but once keep-N retention deletes a version's snapshot
// the mark is dropped too, so the persisted Bad set stays bounded by the
// retention budget instead of growing by one per rollback.
func TestBadSetTrimmedWithPrunedVersions(t *testing.T) {
	dir := t.TempDir()
	r := openTest(t, dir, func(c *Config) { c.Keep = 2 })
	est := goodEstimator(t)
	if _, err := r.Publish("default", est); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Publish("default", est); err != nil {
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
		if len(info.Bad) > 2 {
			t.Fatalf("after 10 canary rollbacks with keep=2: Bad = %v", info.Bad)
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
	r := openTest(t, dir, func(c *Config) { c.Keep = 2 })
	est := goodEstimator(t)
	first, err := r.Publish("default", est)
	if err != nil {
		t.Fatal(err)
	}
	st, err := loadState(vfs.OS, lineageDir)
	if err != nil || st == nil {
		t.Fatalf("load state: %v, %v", st, err)
	}
	st.Bad = []int{first + 40, first + 41}
	if err := saveState(vfs.OS, lineageDir, st); err != nil {
		t.Fatal(err)
	}

	r2 := openTest(t, dir, func(c *Config) { c.Keep = 2 })
	if info, err := r2.Info("default"); err != nil || len(info.Bad) != 2 {
		t.Fatalf("reopened: Bad = %v, err %v; want the two persisted marks", info.Bad, err)
	}
	if _, err := r2.Publish("default", est); err != nil {
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

func TestManualRollback(t *testing.T) {
	r := openTest(t, t.TempDir(), nil)
	first, _ := r.Publish("default", goodEstimator(t))
	second, _ := r.Publish("default", goodEstimator(t))
	if err := r.Promote("default", second); err != nil {
		t.Fatal(err)
	}
	if err := r.Rollback("default"); err != nil {
		t.Fatal(err)
	}
	info, _ := r.Info("default")
	if info.Active != first {
		t.Fatalf("rollback restored v%d, want v%d", info.Active, first)
	}
	if !contains(info.Bad, second) {
		t.Fatalf("rolled-back v%d not marked bad: %v", second, info.Bad)
	}
	if err := r.Rollback("default"); err == nil {
		t.Fatal("second rollback should fail: no last-known-good left")
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

func TestQuotaTenantTableBounded(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newQuotas(QuotaConfig{
		Default:    TenantQuota{Rate: 1, Burst: 1},
		MaxTenants: 4,
	}, func() time.Time { return now })
	for i := 0; i < 100; i++ {
		q.Allow(string(rune('a' + i%26)))
	}
	if len(q.buckets) > 4 {
		t.Fatalf("bucket table grew to %d entries with MaxTenants=4", len(q.buckets))
	}
}

// TestQuotaConfiguredTenantOutsideTableBound: a tenant named in the
// config keeps its own quota however many other names came first. When
// configured tenants took table slots on first sight like any other
// name, MaxTenants stranger names pushed them into the overflow bucket
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
			Default:    tc.def,
			Tenants:    map[string]TenantQuota{"vip": tc.quota},
			MaxTenants: 4,
		}, func() time.Time { return now })
		for _, name := range []string{"s1", "s2", "s3", "s4"} {
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
			t.Errorf("%s: admitted %d of 10 after four stranger names, want %d", tc.name, admitted, tc.wantAdmitted)
		}
	}
}

// TestQuotaTableEvictsRefilledBuckets: once the buckets in a full table
// have refilled to their burst, a new name gets a bucket of its own
// instead of the overflow bucket every later name would share, and the
// table stays within MaxTenants.
func TestQuotaTableEvictsRefilledBuckets(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newQuotas(QuotaConfig{
		Default:    TenantQuota{Rate: 1, Burst: 2},
		MaxTenants: 4,
	}, func() time.Time { return now })
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
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
	if len(q.buckets) > 4 {
		t.Fatalf("bucket table grew to %d entries with MaxTenants=4", len(q.buckets))
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

// TestCanaryRouteZeroAlloc pins the per-request cost of the lifecycle
// layer: resolving a route while a canary split is in flight, and the
// tenant quota check on both an admitted and a rejected tenant, allocate
// nothing.
func TestCanaryRouteZeroAlloc(t *testing.T) {
	r := openTest(t, t.TempDir(), func(c *Config) {
		c.Quota = QuotaConfig{Tenants: map[string]TenantQuota{
			"open":   {Rate: 1e9, Burst: 1 << 30},
			"closed": {Rate: 0.001, Burst: 1},
		}}
	})
	if _, err := r.Publish("default", goodEstimator(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("default", goodEstimator(t)); err != nil {
		t.Fatal(err)
	}
	canaries := 0
	allocs := testing.AllocsPerRun(1000, func() {
		rt, err := r.Route("default")
		if err != nil {
			t.Fatal(err)
		}
		if rt.Canary {
			canaries++
		}
	})
	if canaries == 0 {
		t.Fatal("no request routed to the canary: the split is not in flight")
	}
	if allocs != 0 {
		t.Fatalf("Route with a canary in flight: %.1f allocs/op, want 0", allocs)
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

// TestDriftTriggersRetrain: sustained bad feedback crosses the drift
// threshold, kicks off a background retrain over the field library, and
// the retrained model arrives as a canary candidate.
func TestDriftTriggersRetrain(t *testing.T) {
	r := openTest(t, t.TempDir(), func(c *Config) {
		c.Drift = DriftConfig{Window: 16, MinObs: 8, MedAPEThreshold: 30}
	})
	r.Publish("default", badEstimator(t)) // serving model that drifted
	field := &grid.Field{Name: "f0", Buffers: []*grid.Buffer{grid.NewBuffer(8, 8)}}
	retrained := make(chan struct{})
	err := r.SetRetraining("default", Retraining{
		Library: []*grid.Field{field},
		Retrain: func(ctx context.Context, fields []*grid.Field) (*core.Estimator, error) {
			if len(fields) != 1 || fields[0] != field {
				t.Errorf("retrain fields = %v", fields)
			}
			close(retrained)
			return goodEstimator(t), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	next := feedbackStream(31)
	started := false
	for i := 0; i < 100 && !started; i++ {
		f, actual := next()
		res, err := r.ObserveFeedback("default", f, actual)
		if err != nil {
			t.Fatal(err)
		}
		started = res.RetrainStarted
	}
	if !started {
		t.Fatal("drift never triggered a retrain")
	}
	select {
	case <-retrained:
	case <-time.After(10 * time.Second):
		t.Fatal("retrain func never ran")
	}
	// The retrained model lands as a canary candidate.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, _ := r.Info("default")
		if info.Canary != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retrained model never published as candidate")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentLifecycleHammer drives routing, feedback, publishes,
// promotes, rollbacks and introspection concurrently under -race. The
// assertions are the invariants: every route lands on a live engine, and
// no request is ever served by a version already marked bad.
func TestConcurrentLifecycleHammer(t *testing.T) {
	r := openTest(t, t.TempDir(), nil)
	est := goodEstimator(t)
	if _, err := r.Publish("default", est); err != nil {
		t.Fatal(err)
	}
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
			seq, err := r.Publish("default", est)
			if err != nil {
				t.Errorf("publish: %v", err)
				return
			}
			switch i % 3 {
			case 0:
				if err := r.Promote("default", seq); err != nil &&
					!strings.Contains(err.Error(), "already active") {
					t.Errorf("promote: %v", err)
					return
				}
			case 1:
				r.Rollback("default") //nolint:errcheck // racing decisions may empty LKG
			}
			r.Info("default")
			r.InfoAll()
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
