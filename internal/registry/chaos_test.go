package registry

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/crestlab/crest/internal/chaos"
	"github.com/crestlab/crest/internal/vfs"
)

// TestTornWriteChurnNeverLosesServingPath is the registry half of the
// retention acceptance scenario: with every third write torn (half the
// bytes persisted, success reported), a churn of version writes, promotes
// and rollbacks must never leave a lineage unservable, and pruning must
// never remove the snapshot a reopened registry ends up serving — the
// digest check classifies torn files as corrupt garbage, everything else
// is kept.
func TestTornWriteChurnNeverLosesServingPath(t *testing.T) {
	root := t.TempDir()
	torn := chaos.WrapFS(vfs.OS, chaos.FSPlan{Seed: 5, ShortWriteEvery: 3})

	writeVersion(t, torn, root, "ln", goodEstimator(t))
	reg := openTest(t, root, func(c *Config) {
		c.FS = torn
		c.Keep = 2
	})
	// Churn: a version may land torn, and so may the state a promote or
	// rollback writes. A promote of a torn version fails and changes
	// nothing; a rollback may find no loadable last-known-good. None of
	// it may panic or wedge the lineage.
	promoted := 0
	for i := 0; i < 8; i++ {
		seq := writeVersion(t, torn, root, "ln", goodEstimator(t))
		if err := reg.Promote("ln", seq); err != nil {
			t.Logf("promote v%d: %v", seq, err)
		} else {
			promoted++
		}
		if i%3 == 2 {
			if err := reg.Rollback("ln"); err != nil {
				t.Logf("rollback: %v", err)
			}
		}
		rt, err := reg.Route("ln")
		if err != nil {
			t.Fatalf("route during churn: %v", err)
		}
		if _, err := rt.Engine.Estimator().Estimate([]float64{0.1, 0.2, 0.3, 0.4, 0.5}); err != nil {
			t.Fatalf("serving v%d broken during churn: %v", rt.Seq, err)
		}
	}
	if cnt := torn.Counts(); cnt.ShortWrites == 0 {
		t.Fatal("chaos plan injected no torn writes; the test exercised nothing")
	}
	if promoted == 0 {
		t.Fatal("no promote succeeded; the churn never changed the serving version")
	}
	reg.Close()

	// Reopen on the real filesystem: startup must degrade past any torn
	// snapshot/state to a valid serving version.
	reg2 := openTest(t, root, func(c *Config) { c.Keep = 2 })
	defer reg2.Close()
	rt, err := reg2.Route("ln")
	if err != nil {
		t.Fatalf("route after torn-write churn: %v", err)
	}
	if _, err := rt.Engine.Estimator().Estimate([]float64{0.1, 0.2, 0.3, 0.4, 0.5}); err != nil {
		t.Fatalf("serving estimator broken: %v", err)
	}

	// The snapshot backing the serving version survived pruning.
	dir := filepath.Join(root, "ln")
	if _, err := os.Stat(filepath.Join(dir, seqPath("", rt.Seq))); err != nil {
		entries, _ := os.ReadDir(dir)
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("serving v%d has no snapshot on disk (%v): %v", rt.Seq, names, err)
	}
}
