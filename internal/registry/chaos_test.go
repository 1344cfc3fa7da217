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
// bytes persisted, success reported), a churn of publishes and feedback
// must never leave a lineage unservable, and pruning must never remove
// the snapshot a reopened registry ends up serving — the digest check
// classifies torn files as corrupt garbage, everything else is kept.
func TestTornWriteChurnNeverLosesServingPath(t *testing.T) {
	root := t.TempDir()
	torn := chaos.WrapFS(vfs.OS, chaos.FSPlan{Seed: 5, ShortWriteEvery: 3})

	reg := openTest(t, root, func(c *Config) {
		c.FS = torn
		c.Keep = 2
	})
	if _, err := reg.Publish("ln", goodEstimator(t)); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	// Churn: publishes may silently write torn snapshots or torn state;
	// feedback drives canary decisions between them. None of it may
	// panic or wedge the lineage. Each publish gets enough feedback to
	// reach a verdict at the canary's evidence constants.
	feed := feedbackStream(99)
	decisions := 0
	for i := 0; i < 6; i++ {
		if _, err := reg.Publish("ln", goodEstimator(t)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		for j := 0; j < 48; j++ {
			f, cr := feed()
			res, err := reg.ObserveFeedback("ln", f, cr)
			if err != nil {
				t.Fatalf("feedback: %v", err)
			}
			if res.Decision != "" {
				decisions++
			}
		}
		if _, err := reg.Route("ln"); err != nil {
			t.Fatalf("route during churn: %v", err)
		}
	}
	if cnt := torn.Counts(); cnt.ShortWrites == 0 {
		t.Fatal("chaos plan injected no torn writes; the test exercised nothing")
	}
	if decisions == 0 {
		t.Fatal("the churn reached no canary decision; the test exercised none")
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
