// Package snapshot persists trained compressibility estimators across
// process restarts: a trained core.Estimator (mixture components,
// conformal calibration, standardization moments, FellBack flag and the
// training configuration) is serialized into a self-describing envelope —
// a text header carrying the format name, format version and the SHA-256
// digest of the payload, followed by the JSON-encoded parameter state.
//
// Durability contract:
//
//   - Save is crash-safe: bytes land in a same-directory temp file, are
//     fsynced, and are renamed over the target only after the sync
//     succeeds, then the directory is fsynced. A reader never observes a
//     partial snapshot under the final name.
//   - Load verifies the payload digest before decoding and validates the
//     decoded state before constructing an estimator, so truncated,
//     bit-rotted or adversarial bytes yield a typed error
//     (crerr.ErrSnapshotCorrupt) — never a panic and never a silently
//     wrong model. A snapshot from a different format version is rejected
//     with crerr.ErrSnapshotVersion.
//   - LoadLatest scans a snapshot directory newest-first and serves the
//     newest snapshot that verifies, so a truncated or corrupt head
//     (crash mid-rollout, torn disk) degrades to the previous good model
//     instead of taking the service down.
//
// Restored estimators are bit-identical to their in-memory originals:
// Estimate on a loaded snapshot returns exactly the float64s the trained
// estimator would have returned.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/vfs"
)

// Magic is the format name on the envelope's first header line.
const Magic = "crest-snapshot"

// FormatVersion is the envelope version this build reads and writes.
const FormatVersion = 1

// Ext is the conventional snapshot file extension; LoadLatest considers
// only files carrying it.
const Ext = ".crsnap"

// maxHeader bounds how far Decode scans for the header, so a malformed
// blob cannot make header parsing quadratic.
const maxHeader = 256

// Encode serializes a trained estimator into the envelope format.
func Encode(est *core.Estimator) ([]byte, error) {
	st, err := est.State()
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %d\nsha256 %s\n\n", Magic, FormatVersion, hex.EncodeToString(sum[:]))
	b.Write(payload)
	return b.Bytes(), nil
}

// Decode verifies and deserializes an envelope produced by Encode.
// Malformed envelopes, digest mismatches and invalid decoded states
// return errors matching crerr.ErrSnapshotCorrupt; an intact envelope of
// another format version matches crerr.ErrSnapshotVersion. Decode never
// panics, whatever the input bytes.
func Decode(data []byte) (*core.Estimator, error) {
	payload, err := splitEnvelope(data)
	if err != nil {
		return nil, err
	}
	var st core.EstimatorState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", crerr.ErrSnapshotCorrupt, err)
	}
	est, err := core.FromState(&st)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", crerr.ErrSnapshotCorrupt, err)
	}
	return est, nil
}

// splitEnvelope parses and verifies the header, returning the payload.
func splitEnvelope(data []byte) ([]byte, error) {
	head := data
	if len(head) > maxHeader {
		head = head[:maxHeader]
	}
	// Line 1: "crest-snapshot <version>"
	nl1 := bytes.IndexByte(head, '\n')
	if nl1 < 0 {
		return nil, fmt.Errorf("%w: no header", crerr.ErrSnapshotCorrupt)
	}
	magic, verText, ok := bytes.Cut(data[:nl1], []byte(" "))
	if !ok || string(magic) != Magic {
		return nil, fmt.Errorf("%w: not a %s envelope", crerr.ErrSnapshotCorrupt, Magic)
	}
	ver, err := strconv.Atoi(string(verText))
	if err != nil {
		return nil, fmt.Errorf("%w: unreadable version %q", crerr.ErrSnapshotCorrupt, verText)
	}
	if ver != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot is version %d, this build reads %d",
			crerr.ErrSnapshotVersion, ver, FormatVersion)
	}
	// Line 2: "sha256 <hex>"
	rest := data[nl1+1:]
	restHead := rest
	if len(restHead) > maxHeader {
		restHead = restHead[:maxHeader]
	}
	nl2 := bytes.IndexByte(restHead, '\n')
	if nl2 < 0 {
		return nil, fmt.Errorf("%w: truncated header", crerr.ErrSnapshotCorrupt)
	}
	algo, digestText, ok := bytes.Cut(rest[:nl2], []byte(" "))
	if !ok || string(algo) != "sha256" {
		return nil, fmt.Errorf("%w: missing sha256 digest line", crerr.ErrSnapshotCorrupt)
	}
	want, err := hex.DecodeString(string(digestText))
	if err != nil || len(want) != sha256.Size {
		return nil, fmt.Errorf("%w: unreadable digest %q", crerr.ErrSnapshotCorrupt, digestText)
	}
	// Blank separator line, then payload.
	rest = rest[nl2+1:]
	if len(rest) == 0 || rest[0] != '\n' {
		return nil, fmt.Errorf("%w: missing header separator", crerr.ErrSnapshotCorrupt)
	}
	payload := rest[1:]
	got := sha256.Sum256(payload)
	if !bytes.Equal(got[:], want) {
		return nil, fmt.Errorf("%w: payload digest mismatch (%d payload bytes)",
			crerr.ErrSnapshotCorrupt, len(payload))
	}
	return payload, nil
}

// Save writes est to path crash-safely (temp file + fsync + rename +
// directory fsync).
func Save(path string, est *core.Estimator) error {
	return SaveFS(vfs.OS, path, est)
}

// Snapshot I/O metrics on the process-wide registry: save/load latency
// histograms plus failure and corrupt-head-fallback counters, so a slow
// disk or a recurring corrupt snapshot shows up at GET /metrics instead
// of only in logs.
var (
	obsSave      = obs.Default().Histogram("snapshot_save_seconds")
	obsLoad      = obs.Default().Histogram("snapshot_load_seconds")
	obsLoadFails = obs.Default().Counter("snapshot_load_failures_total")
	obsFallbacks = obs.Default().Counter("snapshot_fallbacks_total")
)

// SaveFS is Save on an explicit filesystem, the seam the chaos harness
// injects short writes and rename failures through.
func SaveFS(fsys vfs.FS, path string, est *core.Estimator) error {
	t0 := time.Now()
	data, err := Encode(est)
	if err != nil {
		return err
	}
	if err := vfs.WriteFileAtomic(fsys, path, data); err != nil {
		return fmt.Errorf("snapshot: write %s: %w", path, err)
	}
	obsSave.Observe(time.Since(t0).Seconds())
	return nil
}

// Load reads, verifies and decodes the snapshot at path.
func Load(path string) (*core.Estimator, error) {
	return LoadFS(vfs.OS, path)
}

// LoadFS is Load on an explicit filesystem.
func LoadFS(fsys vfs.FS, path string) (*core.Estimator, error) {
	t0 := time.Now()
	data, err := fsys.ReadFile(path)
	if err != nil {
		obsLoadFails.Inc()
		return nil, fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	est, err := Decode(data)
	if err != nil {
		obsLoadFails.Inc()
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	obsLoad.Observe(time.Since(t0).Seconds())
	return est, nil
}

// ErrNoSnapshots reports a directory holding no loadable *.crsnap file.
var ErrNoSnapshots = errors.New("snapshot: no snapshots in directory")

// LoadLatest loads the newest valid snapshot in dir: candidates carrying
// Ext are ordered newest-first (modification time, then name) and tried
// in turn, so a truncated or corrupt head falls back to the previous
// valid snapshot. It returns the loaded estimator and its path. When no
// candidate verifies, the error matches ErrNoSnapshots and carries every
// candidate's failure.
func LoadLatest(dir string) (*core.Estimator, string, error) {
	return LoadLatestFS(vfs.OS, dir)
}

// LoadLatestFS is LoadLatest on an explicit filesystem.
func LoadLatestFS(fsys vfs.FS, dir string) (*core.Estimator, string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, "", fmt.Errorf("snapshot: scan %s: %w", dir, err)
	}
	type candidate struct {
		name string
		mod  int64
	}
	var cands []candidate
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != Ext {
			continue
		}
		var mod int64
		if info, err := e.Info(); err == nil {
			mod = info.ModTime().UnixNano()
		}
		cands = append(cands, candidate{name: e.Name(), mod: mod})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].mod != cands[j].mod {
			return cands[i].mod > cands[j].mod
		}
		return cands[i].name > cands[j].name
	})
	if len(cands) == 0 {
		return nil, "", fmt.Errorf("%w: %s", ErrNoSnapshots, dir)
	}
	failures := make([]error, 0, len(cands))
	for _, c := range cands {
		path := filepath.Join(dir, c.name)
		est, err := LoadFS(fsys, path)
		if err == nil {
			return est, path, nil
		}
		// A failed candidate means the fallback chain advanced past a
		// corrupt (or vanished) snapshot — worth a counter, since a
		// recurring fallback signals a persistently bad head.
		obsFallbacks.Inc()
		failures = append(failures, err)
	}
	return nil, "", fmt.Errorf("%w: %s: every candidate failed: %w",
		ErrNoSnapshots, dir, errors.Join(failures...))
}

// WriteNew saves est into dir under a fresh sequence-numbered name
// (model-NNNNNN.crsnap, one past the highest existing sequence), so
// repeated training runs accumulate a history LoadLatest can fall back
// across. It returns the path written.
func WriteNew(dir string, est *core.Estimator) (string, error) {
	return WriteNewFS(vfs.OS, dir, est)
}

// WriteNewFS is WriteNew on an explicit filesystem.
func WriteNewFS(fsys vfs.FS, dir string, est *core.Estimator) (string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "", fmt.Errorf("snapshot: scan %s: %w", dir, err)
	}
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", fmt.Errorf("snapshot: create %s: %w", dir, err)
		}
	}
	seq := 0
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != Ext {
			continue
		}
		base := name[:len(name)-len(Ext)]
		if n, ok := parseSeq(base); ok && n >= seq {
			seq = n + 1
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("model-%06d%s", seq, Ext))
	if err := SaveFS(fsys, path, est); err != nil {
		return "", err
	}
	return path, nil
}

// parseSeq extracts N from a "model-N" base name.
func parseSeq(base string) (int, bool) {
	const prefix = "model-"
	if len(base) <= len(prefix) || base[:len(prefix)] != prefix {
		return 0, false
	}
	n, err := strconv.Atoi(base[len(prefix):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
