package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	crest "github.com/crestlab/crest"
)

// trainTinySnapshot runs cmdTrain into dir and returns the written path.
func trainTinySnapshot(t *testing.T, dir string) string {
	t.Helper()
	args := append([]string{"-dataset", "miranda", "-field", "density",
		"-eps", "1e-3", "-dir", dir}, "-nz", "8", "-ny", "24", "-nx", "24")
	if err := cmdTrain(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("train wrote nothing: %v", err)
	}
	return filepath.Join(dir, entries[len(entries)-1].Name())
}

// startServe launches cmdServe against dir and waits for the bound
// address; the returned cancel triggers the SIGTERM drain path.
func startServe(t *testing.T, extra ...string) (addr string, cancel context.CancelFunc, done chan error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancelCtx := context.WithCancel(context.Background())
	done = make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	go func() { done <- cmdServe(ctx, args) }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return string(b), cancelCtx, done
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited before binding: %v", err)
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelCtx()
	t.Fatal("server never wrote its address file")
	return "", nil, nil
}

// TestTrainServeClientRoundTrip is the durability round trip: train →
// snapshot → serve from the snapshot directory → estimate over HTTP (via
// the retrying client) → SIGTERM-equivalent cancellation drains cleanly.
func TestTrainServeClientRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trainTinySnapshot(t, dir)

	addr, cancel, done := startServe(t, "-model-dir", dir)
	defer cancel()

	r, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", r.StatusCode)
	}

	clientArgs := append([]string{"-url", "http://" + addr, "-dataset", "miranda",
		"-field", "density", "-step", "2", "-eps", "1e-3"}, "-nz", "8", "-ny", "24", "-nx", "24")
	if err := cmdClient(context.Background(), clientArgs); err != nil {
		t.Fatalf("client: %v", err)
	}

	// Stats moved and are well-formed JSON.
	r, err = http.Get("http://" + addr + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var stats struct {
		Server struct {
			Served uint64 `json:"served"`
		} `json:"server"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("statsz: %v: %s", err, body)
	}
	if stats.Server.Served == 0 {
		t.Error("served counter did not move")
	}

	// The signal path: cancellation drains and the command returns nil.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve did not drain cleanly: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not exit after cancellation")
	}
}

// TestServeSingleModelFlag serves from an exact -model path.
func TestServeSingleModelFlag(t *testing.T) {
	dir := t.TempDir()
	path := trainTinySnapshot(t, dir)
	addr, cancel, done := startServe(t, "-model", path)
	r, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServeCorruptedSnapshotStartup: a startup against corrupt state must
// fail with the typed snapshot error — no panic, non-nil error (main maps
// it to a non-zero exit).
func TestServeCorruptedSnapshotStartup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model-000000.crsnap")
	if err := os.WriteFile(path, []byte("crest-snapshot 1\nsha256 zzzz\n\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	err := cmdServe(context.Background(), []string{"-model", path, "-addr", "127.0.0.1:0"})
	if !errors.Is(err, crest.ErrSnapshotCorrupt) {
		t.Fatalf("corrupt -model: %v, want ErrSnapshotCorrupt", err)
	}
	// Directory mode with only corrupt candidates fails the same way.
	err = cmdServe(context.Background(), []string{"-model-dir", dir, "-addr", "127.0.0.1:0"})
	if !errors.Is(err, crest.ErrSnapshotCorrupt) {
		t.Fatalf("corrupt -model-dir: %v, want ErrSnapshotCorrupt", err)
	}
}

// TestServeFallsBackPastCorruptHead: the newest snapshot is truncated;
// serve must start from the previous valid one.
func TestServeFallsBackPastCorruptHead(t *testing.T) {
	dir := t.TempDir()
	good := trainTinySnapshot(t, dir)
	// A "newer" snapshot arrives truncated (torn write at crash).
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "model-000001.crsnap")
	if err := os.WriteFile(bad, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(bad, future, future); err != nil {
		t.Fatal(err)
	}

	addr, cancel, done := startServe(t, "-model-dir", dir)
	r, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("readyz after fallback: %d", r.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestServeFlagValidation(t *testing.T) {
	if err := cmdServe(context.Background(), nil); err == nil {
		t.Error("no model source accepted")
	}
	if err := cmdServe(context.Background(), []string{"-model", "a", "-model-dir", "b"}); err == nil {
		t.Error("both model sources accepted")
	}
	if err := cmdTrain(context.Background(), nil); err == nil {
		t.Error("train without destination accepted")
	}
}

// TestCmdTrainExactPathLoadsBack exercises -o and verifies the snapshot
// decodes through the public API.
func TestCmdTrainExactPathLoadsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.crsnap")
	args := append([]string{"-dataset", "cesm", "-eps", "1e-3", "-o", path},
		"-nz", "8", "-ny", "24", "-nx", "24")
	if err := cmdTrain(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	est, err := crest.LoadEstimator(path)
	if err != nil {
		t.Fatal(err)
	}
	if est.IntervalRadius() < 0 {
		t.Fatal("implausible restored model")
	}
}

// TestCmdBatchStatsJSON checks the -stats flag emits parseable JSON with
// the cache counters (the CLI face of /statsz's engine half).
func TestCmdBatchStatsJSON(t *testing.T) {
	old := os.Stdout
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wp
	captured := make(chan []byte, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, rp)
		captured <- buf.Bytes()
	}()

	args := append([]string{"-dataset", "miranda", "-field", "density",
		"-eps", "1e-3", "-train", "0.6", "-stats", "-quiet"}, "-nz", "8", "-ny", "24", "-nx", "24")
	cmdErr := cmdBatch(context.Background(), args)
	wp.Close()
	os.Stdout = old
	out := <-captured
	if cmdErr != nil {
		t.Fatal(cmdErr)
	}
	var doc struct {
		Workers int `json:"workers"`
		Engine  struct {
			Requests uint64 `json:"Requests"`
			Cache    struct {
				DatasetMisses uint64
			}
		} `json:"engine"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("-stats output not JSON: %v: %s", err, out)
	}
	if doc.Workers <= 0 || doc.Engine.Requests == 0 || doc.Engine.Cache.DatasetMisses == 0 {
		t.Fatalf("stats content implausible: %s", out)
	}
}

// TestServeClusterFlags boots two clustered serve processes (in-process)
// that list each other as peers, and checks /statsz exposes the cluster
// block with both peers while estimates still succeed end to end.
func TestServeClusterFlags(t *testing.T) {
	dir := t.TempDir()
	trainTinySnapshot(t, dir)

	// Reserve two ports by binding and releasing, so both nodes can know
	// the full peer list up front.
	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	a1, a2 := reserve(), reserve()
	peers := "http://" + a1 + ",http://" + a2

	var cancels []context.CancelFunc
	var dones []chan error
	for _, a := range []string{a1, a2} {
		addrFile := filepath.Join(t.TempDir(), "addr")
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func(a string) {
			done <- cmdServe(ctx, []string{
				"-model-dir", dir, "-addr", a, "-addr-file", addrFile,
				"-peers", peers, "-self", "http://" + a, "-hedge-after", "-1ms",
			})
		}(a)
		cancels = append(cancels, cancel)
		dones = append(dones, done)
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
		for _, d := range dones {
			select {
			case err := <-d:
				if err != nil {
					t.Errorf("serve exited with %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("serve did not drain after cancel")
			}
		}
	}()

	waitReady := func(addr string) {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get("http://" + addr + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("node %s never became ready", addr)
	}
	waitReady(a1)
	waitReady(a2)

	resp, err := http.Get("http://" + a1 + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sp struct {
		Cluster *struct {
			Self  string `json:"self"`
			Peers []struct {
				Addr string `json:"addr"`
			} `json:"peers"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(body, &sp); err != nil {
		t.Fatalf("statsz not JSON: %v: %s", err, body)
	}
	if sp.Cluster == nil {
		t.Fatalf("clustered serve missing cluster block: %s", body)
	}
	if sp.Cluster.Self != "http://"+a1 || len(sp.Cluster.Peers) != 2 {
		t.Fatalf("cluster block implausible: %s", body)
	}
}

// TestServeRegistryRoundTrip is the registry-mode CLI round trip: train
// seeds a lineage directory, serve -registry adopts it (re-sequenced as
// v1), estimates route with version headers, `crest models list` renders
// the lineage, and a configured tenant quota answers 429 with Retry-After
// once its burst is spent.
func TestServeRegistryRoundTrip(t *testing.T) {
	root := t.TempDir()
	trainTinySnapshot(t, filepath.Join(root, "default"))

	addr, cancel, done := startServe(t,
		"-registry", root, "-quota", "tiny=0.1:1,*=1000")
	defer cancel()
	base := "http://" + addr

	clientArgs := append([]string{"-url", base, "-dataset", "miranda",
		"-field", "density", "-step", "2", "-eps", "1e-3"}, "-nz", "8", "-ny", "24", "-nx", "24")
	if err := cmdClient(context.Background(), clientArgs); err != nil {
		t.Fatalf("client: %v", err)
	}

	// The models admin surface answers and carries the adopted version.
	r, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var doc struct {
		Lineages []struct {
			Name   string `json:"name"`
			Active int    `json:"active"`
		} `json:"lineages"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("models list: %v: %s", err, body)
	}
	if len(doc.Lineages) != 1 || doc.Lineages[0].Name != "default" || doc.Lineages[0].Active != 1 {
		t.Fatalf("lineages = %s", body)
	}
	if err := cmdModels(context.Background(), []string{"list", "-url", base}); err != nil {
		t.Fatalf("models list CLI: %v", err)
	}

	// The tiny tenant's burst of 1 is spent by the first request; the
	// second must be a 429 with a Retry-After hint.
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i % 8)
	}
	estBody, err := json.Marshal(map[string]any{"rows": 8, "cols": 8, "data": data, "eps": 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{http.StatusOK, http.StatusTooManyRequests} {
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/estimate", bytes.NewReader(estBody))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Crest-Tenant", "tiny")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("tiny tenant request %d: status %d, want %d", i, resp.StatusCode, want)
		}
		if want == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve did not drain cleanly: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not exit after cancellation")
	}
}

// TestServeRegistryFlagValidation pins the mutual-exclusion rules. The
// registry is servable and the context already canceled, so a flag that
// serve accepted but ignored would start, drain and return nil instead
// of failing.
func TestServeRegistryFlagValidation(t *testing.T) {
	root := t.TempDir()
	trainTinySnapshot(t, filepath.Join(root, "default"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-registry", root, "-model", "y"},
		{"-registry", root, "-model-dir", "y"},
		{"-registry", root, "-peers", "http://a,http://b"},
		{"-registry", root, "-recalibrate"},
		{"-registry", root, "-recal-window", "64"},
		{"-registry", root, "-recal-band", "0.03"},
		{"-registry", root, "-quota", "alice=10:0.5"},
		{},
	} {
		if err := cmdServe(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...)); err == nil {
			t.Errorf("args %v: expected a flag validation error", args)
		}
	}
}

// TestParseQuotaSpec covers the -quota grammar.
func TestParseQuotaSpec(t *testing.T) {
	cfg, err := parseQuotaSpec("alice=5:10, bob=2 ,*=100")
	if err != nil {
		t.Fatal(err)
	}
	if q := cfg.Tenants["alice"]; q.Rate != 5 || q.Burst != 10 {
		t.Fatalf("alice = %+v", q)
	}
	if q := cfg.Tenants["bob"]; q.Rate != 2 || q.Burst != 0 {
		t.Fatalf("bob = %+v", q)
	}
	if cfg.Default.Rate != 100 {
		t.Fatalf("default = %+v", cfg.Default)
	}
	for _, bad := range []string{"alice", "alice=", "alice=x", "alice=1:x", "=5"} {
		if _, err := parseQuotaSpec(bad); err == nil {
			t.Errorf("spec %q: expected an error", bad)
		}
	}
}
