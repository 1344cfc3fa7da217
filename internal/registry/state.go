package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"github.com/crestlab/crest/internal/vfs"
)

// stateFile is the per-lineage control file, written atomically next to
// the snapshots it points into.
const stateFile = "state.json"

// stateFormat is the control-file schema version.
const stateFormat = 1

// lineageState is the durable control state of one lineage: which version
// serves, which version is the proven fallback, which candidates were
// rejected, and — when a canary is in flight — the full comparison window,
// so a crash mid-rollout resumes the split and the evidence instead of
// restarting the experiment.
type lineageState struct {
	Format int `json:"format"`

	// Active is the serving version's sequence number; LKG is the
	// last-known-good version promotion preserves as the rollback target
	// (0: none). Bad lists candidate sequences that were rolled back for
	// regression — never re-adopted, eligible for pruning.
	Active int   `json:"active"`
	LKG    int   `json:"lkg,omitempty"`
	Bad    []int `json:"bad,omitempty"`

	// Canary, when present, is the in-flight rollout.
	Canary *canaryState `json:"canary,omitempty"`

	// Decisions is the capped, newest-last audit log of lifecycle
	// transitions.
	Decisions []Decision `json:"decisions,omitempty"`
}

// canaryState is the persisted half of a canary rollout: the candidate,
// the deterministic split position, and the sliding comparison windows.
type canaryState struct {
	Candidate int     `json:"candidate"`
	Fraction  float64 `json:"fraction"`

	// Requests is the split counter: request n goes to the candidate
	// exactly when floor(fraction·(n+1)) > floor(fraction·n), so the
	// split is deterministic and resumes exactly where it stopped.
	Requests       uint64 `json:"requests"`
	CanaryRequests uint64 `json:"canary_requests"`

	// Observed counts feedback observations scored against both models.
	Observed int `json:"observed"`

	// ActiveAPE and CandAPE are the rolling APE windows (percent),
	// newest-last, capped at canaryWindow.
	ActiveAPE []float64 `json:"active_ape,omitempty"`
	CandAPE   []float64 `json:"cand_ape,omitempty"`

	// Coverage tallies over the same window of observations.
	ActiveHits int `json:"active_hits"`
	CandHits   int `json:"cand_hits"`
	WindowObs  int `json:"window_obs"`

	// WinStreak counts consecutive evaluations the candidate won;
	// canarySustainEvals of them promote.
	WinStreak int `json:"win_streak"`
}

// Decision is one audit-log entry of a lifecycle transition.
type Decision struct {
	Time   time.Time `json:"time"`
	Action string    `json:"action"` // adopt|publish|promote|rollback
	From   int       `json:"from,omitempty"`
	To     int       `json:"to,omitempty"`
	Auto   bool      `json:"auto,omitempty"`
	Reason string    `json:"reason,omitempty"`
}

// maxDecisions caps the persisted audit log.
const maxDecisions = 64

func (st *lineageState) logDecision(d Decision) {
	st.Decisions = append(st.Decisions, d)
	if len(st.Decisions) > maxDecisions {
		st.Decisions = st.Decisions[len(st.Decisions)-maxDecisions:]
	}
}

// saveState writes the control file crash-safely.
func saveState(fsys vfs.FS, dir string, st *lineageState) error {
	st.Format = stateFormat
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: encode state: %w", err)
	}
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(dir, stateFile), data); err != nil {
		return fmt.Errorf("registry: write state %s: %w", dir, err)
	}
	return nil
}

// loadState reads the control file. A missing file returns (nil, nil) —
// the adopt-newest path; a corrupt file returns an error the caller
// degrades from (adopt-newest with the history lost, never a crash).
func loadState(fsys vfs.FS, dir string) (*lineageState, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, stateFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("registry: read state %s: %w", dir, err)
	}
	var st lineageState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("registry: state %s corrupt: %w", dir, err)
	}
	if st.Format != stateFormat {
		return nil, fmt.Errorf("registry: state %s is format %d, this build reads %d", dir, st.Format, stateFormat)
	}
	if st.Active < 0 || st.LKG < 0 {
		return nil, fmt.Errorf("registry: state %s has negative sequence", dir)
	}
	if st.Canary != nil {
		c := st.Canary
		if c.Candidate <= 0 || c.Fraction <= 0 || c.Fraction > 1 {
			return nil, fmt.Errorf("registry: state %s has invalid canary (candidate %d, fraction %g)",
				dir, c.Candidate, c.Fraction)
		}
	}
	return &st, nil
}
