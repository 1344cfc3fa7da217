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
// serves, which version is the proven fallback, and which versions were
// rejected.
type lineageState struct {
	Format int `json:"format"`

	// Active is the serving version's sequence number; LKG is the
	// last-known-good version promotion preserves as the rollback target
	// (0: none). Bad lists versions that were rolled back or did not load
	// at startup — never re-adopted, eligible for pruning.
	Active int   `json:"active"`
	LKG    int   `json:"lkg,omitempty"`
	Bad    []int `json:"bad,omitempty"`

	// Decisions is the capped, newest-last audit log of lifecycle
	// transitions.
	Decisions []Decision `json:"decisions,omitempty"`
}

// Decision is one audit-log entry of a lifecycle transition.
type Decision struct {
	Time   time.Time `json:"time"`
	Action string    `json:"action"` // adopt|promote|rollback
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
	return &st, nil
}
