package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/chaos"
	"github.com/crestlab/crest/internal/cluster"
	"github.com/crestlab/crest/internal/featcache"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/retry"
)

// The multi-node chaos suite: a 3-node in-process fleet with every
// node's outbound traffic routed through one chaos.Network, proving the
// acceptance criteria of the replication layer — a single-node crash
// loses zero accepted requests, a flapping peer trips its breaker within
// the threshold and recovers through half-open probes without poisoning
// healthy peers, and hedging bounds p99 with one replica an order of
// magnitude slow.

// chaosNode is one in-process fleet member.
type chaosNode struct {
	addr string
	srv  *Server
	cl   *cluster.Cluster
	hs   *http.Server
	ln   net.Listener
}

// stop kills the node abruptly: listener and server down, cluster client
// stopped. Safe to call twice.
func (n *chaosNode) stop() {
	n.hs.Close()
	n.ln.Close()
	n.cl.Close()
}

type chaosFleet struct {
	nodes []*chaosNode
	net   *chaos.Network
}

// startChaosFleet brings up n nodes on loopback listeners sharing one
// trained model and one chaos network. mod tweaks each node's cluster and
// server configs before construction.
func startChaosFleet(t *testing.T, n int, mod func(i int, ccfg *cluster.Config, scfg *Config)) *chaosFleet {
	t.Helper()
	est := trainedEstimator(t)

	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
	}

	fleet := &chaosFleet{net: chaos.NewNetwork()}
	for i := 0; i < n; i++ {
		ccfg := cluster.Config{
			Self:       addrs[i],
			Peers:      addrs,
			Replicas:   2,
			HedgeAfter: -1, // tests opt in
			// Short forward budget so blackholed routes fail over in test
			// time rather than the production default.
			ForwardTimeout: 500 * time.Millisecond,
			Health: cluster.HealthConfig{
				// No probes unless a test asks: probe-driven ejection would
				// mask the failure mode under study.
				Interval: time.Hour,
				Seed:     int64(i + 1),
			},
			Retry: retry.Policy{
				MaxAttempts: 3,
				BaseDelay:   5 * time.Millisecond,
				MaxDelay:    25 * time.Millisecond,
				Seed:        int64(i + 1),
			},
			Transport: fleet.net.Transport(addrs[i], &http.Transport{}),
			Obs:       obs.NewRegistry(),
		}
		scfg := Config{Obs: obs.NewRegistry()}
		if mod != nil {
			mod(i, &ccfg, &scfg)
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		cache := featcache.NewWithCompute(est.PredictorConfig(), nil, nil)
		scfg.Engine = batch.New(est, cache, 4)
		scfg.Cluster = cl
		srv, err := New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		cl.Start()
		node := &chaosNode{
			addr: addrs[i],
			srv:  srv,
			cl:   cl,
			hs:   &http.Server{Handler: srv.Handler()},
			ln:   lns[i],
		}
		go node.hs.Serve(lns[i])
		fleet.nodes = append(fleet.nodes, node)
		t.Cleanup(node.stop)
	}
	return fleet
}

// namedEstimateBody builds an estimate payload routed by field identity.
func namedEstimateBody(t testing.TB, field string) []byte {
	t.Helper()
	body, err := json.Marshal(EstimateRequest{
		Dataset: "chaos", Field: field,
		Rows: 24, Cols: 24, Data: testBuffer(24, 24, 7), Eps: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// fieldsOwnedBy scans field names until count keys route (from viewer's
// perspective) to wantPrimary as first remote owner.
func fieldsOwnedBy(t *testing.T, viewer *cluster.Cluster, wantPrimary string, count int) []string {
	t.Helper()
	var fields []string
	for i := 0; len(fields) < count && i < 100000; i++ {
		field := fmt.Sprintf("f%d", i)
		key := "chaos/" + field + "/0"
		if viewer.OwnsLocally(key) {
			continue
		}
		owners := viewer.RemoteOwners(key)
		if len(owners) > 0 && owners[0] == wantPrimary {
			fields = append(fields, field)
		}
	}
	if len(fields) < count {
		t.Fatalf("found only %d/%d fields with primary owner %s", len(fields), count, wantPrimary)
	}
	return fields
}

// postEstimateTo posts one estimate and returns status, the decoded
// response, and the served-by header.
func postEstimateTo(t *testing.T, url string, body []byte) (int, EstimateResponse, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, EstimateResponse{}, ""
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var er EstimateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(out, &er); err != nil {
			t.Fatalf("bad estimate body: %v: %s", err, out)
		}
	}
	return resp.StatusCode, er, resp.Header.Get(cluster.ServedByHeader)
}

// TestClusterChaosSingleNodeCrashLosesNothing sends a stream of estimates
// at node 0 and kills node 1 partway through: every request must still be
// answered 200 — rerouted to the surviving replica or served degraded —
// and the fleet must have actually exercised remote serving before the
// crash.
func TestClusterChaosSingleNodeCrashLosesNothing(t *testing.T) {
	fleet := startChaosFleet(t, 3, func(i int, ccfg *cluster.Config, _ *Config) {
		// Probing on: ejection of the dead node is part of the story.
		ccfg.Health.Interval = 20 * time.Millisecond
		ccfg.Health.Timeout = 250 * time.Millisecond
		ccfg.Health.EjectAfter = 2
		ccfg.Breaker = cluster.BreakerConfig{FailureThreshold: 2, OpenFor: 100 * time.Millisecond}
	})
	entry := fleet.nodes[0]
	victim := fleet.nodes[1]

	client := retry.Policy{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond, Seed: 1}
	const total = 60
	remoteServed := 0
	degraded := 0
	for i := 0; i < total; i++ {
		if i == total/2 {
			victim.stop()
		}
		body := namedEstimateBody(t, fmt.Sprintf("f%d", i))
		err := client.Do(context.Background(), func(context.Context) error {
			status, er, servedBy := postEstimateTo(t, entry.addr, body)
			if status != http.StatusOK {
				return fmt.Errorf("status %d", status)
			}
			if servedBy != "" && servedBy != entry.addr {
				remoteServed++
			}
			if er.Degraded {
				degraded++
			}
			if er.CR <= 0 {
				return retry.Permanent(fmt.Errorf("nonsense estimate %+v", er))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("request %d lost during crash: %v", i, err)
		}
	}
	if remoteServed == 0 {
		t.Fatal("no request was served remotely — routing never exercised the fleet")
	}
	t.Logf("crash run: %d/%d remote-served, %d degraded", remoteServed, total, degraded)

	// The dead peer must end up ejected on the entry node's view.
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := true
		for _, ps := range entry.cl.Stats().Peers {
			if ps.Addr == victim.addr {
				healthy = ps.Healthy
			}
		}
		if !healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crashed peer never ejected by health probing")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterChaosBreakerIsolatesFlappingPeer storms 5xx on one peer,
// asserts its breaker trips within the configured threshold while healthy
// peers' breakers stay closed and every client request still succeeds,
// then heals the route and watches the breaker recover through half-open.
func TestClusterChaosBreakerIsolatesFlappingPeer(t *testing.T) {
	const threshold = 3
	// OpenFor must outlast the three open-breaker requests below: under
	// the race detector they take over 100ms, and a breaker that goes
	// half-open mid-check sends its probe into the storm.
	const openFor = 500 * time.Millisecond
	fleet := startChaosFleet(t, 3, func(i int, ccfg *cluster.Config, _ *Config) {
		ccfg.Breaker = cluster.BreakerConfig{
			FailureThreshold: threshold,
			OpenFor:          openFor,
		}
	})
	entry := fleet.nodes[0]
	flappy := fleet.nodes[1]

	fields := fieldsOwnedBy(t, entry.cl, flappy.addr, threshold+6)
	fleet.net.Storm(entry.addr, flappy.addr, http.StatusBadGateway)

	// Each forward to the flapping peer fails and rotates to the backup
	// owner; after `threshold` failures the breaker must be open.
	for i := 0; i < threshold; i++ {
		status, _, _ := postEstimateTo(t, entry.addr, namedEstimateBody(t, fields[i]))
		if status != http.StatusOK {
			t.Fatalf("request %d failed (%d) — storm leaked to the client", i, status)
		}
	}
	breakerState := func(peer string) string {
		for _, ps := range entry.cl.Stats().Peers {
			if ps.Addr == peer {
				return ps.Breaker
			}
		}
		return "?"
	}
	if got := breakerState(flappy.addr); got != "open" {
		t.Fatalf("flapping peer breaker = %q after %d failures, want open", got, threshold)
	}
	if got := breakerState(fleet.nodes[2].addr); got != "closed" {
		t.Fatalf("healthy peer breaker = %q — flapping peer poisoned it", got)
	}

	// While open, traffic to the flapping peer's keys must not touch it.
	before := fleet.net.Counts().Stormed
	for i := threshold; i < threshold+3; i++ {
		status, _, servedBy := postEstimateTo(t, entry.addr, namedEstimateBody(t, fields[i]))
		if status != http.StatusOK {
			t.Fatalf("request during open breaker failed: %d", status)
		}
		if servedBy == flappy.addr {
			t.Fatal("open breaker let a request through to the flapping peer")
		}
	}
	if after := fleet.net.Counts().Stormed; after != before {
		t.Fatalf("open breaker still sent %d request(s) into the storm", after-before)
	}

	// Heal, wait out OpenFor, and drive recovery: the next forward is the
	// half-open probe; its success closes the breaker.
	fleet.net.Heal(entry.addr, flappy.addr)
	time.Sleep(openFor + 50*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for breakerState(flappy.addr) != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker stuck %q after heal", breakerState(flappy.addr))
		}
		status, _, _ := postEstimateTo(t, entry.addr, namedEstimateBody(t, fields[threshold+3]))
		if status != http.StatusOK {
			t.Fatalf("recovery request failed: %d", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the peer serves again.
	status, _, servedBy := postEstimateTo(t, entry.addr, namedEstimateBody(t, fields[threshold+4]))
	if status != http.StatusOK || servedBy != flappy.addr {
		t.Fatalf("recovered peer not serving: status %d servedBy %s", status, servedBy)
	}
}

// TestClusterChaosHedgingBoundsTailLatency measures a healthy-fleet p99,
// then delays one replica 10× the baseline handler latency and asserts
// the hedged p99 stays under 2× the healthy p99.
func TestClusterChaosHedgingBoundsTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-sensitive chaos test")
	}
	const handlerDelay = 40 * time.Millisecond
	fleet := startChaosFleet(t, 3, func(i int, ccfg *cluster.Config, scfg *Config) {
		ccfg.HedgeAfter = 20 * time.Millisecond
		scfg.Middleware = func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/estimate" {
					time.Sleep(handlerDelay)
				}
				next.ServeHTTP(w, r)
			})
		}
	})
	entry, slow := fleet.nodes[0], fleet.nodes[2]

	run := func(tag string) (p99 time.Duration) {
		const total = 40
		lat := make([]time.Duration, 0, total)
		for i := 0; i < total; i++ {
			body := namedEstimateBody(t, fmt.Sprintf("f%d", i))
			start := time.Now()
			status, _, _ := postEstimateTo(t, entry.addr, body)
			if status != http.StatusOK {
				t.Fatalf("%s request %d: status %d", tag, i, status)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		p99 = lat[len(lat)*99/100]
		t.Logf("%s: p50 %v p99 %v", tag, lat[len(lat)/2], p99)
		return p99
	}

	healthyP99 := run("healthy")
	// One replica goes 10× slow for everyone who forwards to it.
	fleet.net.SetLatency("", slow.addr, 10*handlerDelay)
	hedgedP99 := run("one-slow-hedged")

	// Floor the baseline at the injected handler latency so scheduler
	// noise on a loaded CI machine cannot manufacture a failure.
	base := healthyP99
	if base < handlerDelay {
		base = handlerDelay
	}
	if hedgedP99 > 2*base {
		t.Fatalf("hedged p99 %v exceeds 2× healthy baseline %v", hedgedP99, base)
	}
	st := entry.cl.Stats()
	if st.Hedges == 0 {
		t.Fatal("no hedge was ever sent — the tail bound was not hedging's doing")
	}
	t.Logf("hedges %d wins %d", st.Hedges, st.HedgeWins)
}

// TestClusterStatszExposesClusterBlock checks the /statsz cluster section
// appears on a clustered node with per-peer breaker and health state.
func TestClusterStatszExposesClusterBlock(t *testing.T) {
	fleet := startChaosFleet(t, 3, nil)
	entry := fleet.nodes[0]

	// One request so the counters move.
	fields := fieldsOwnedBy(t, entry.cl, fleet.nodes[1].addr, 1)
	if status, _, _ := postEstimateTo(t, entry.addr, namedEstimateBody(t, fields[0])); status != http.StatusOK {
		t.Fatalf("estimate failed: %d", status)
	}

	resp, err := http.Get(entry.addr + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Cluster *ClusterBlock `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Cluster == nil {
		t.Fatal("statsz has no cluster block on a clustered node")
	}
	if payload.Cluster.Self != entry.addr || len(payload.Cluster.Peers) != 3 {
		t.Fatalf("cluster block malformed: %+v", payload.Cluster)
	}
	if payload.Cluster.Forwarded == 0 {
		t.Fatal("forwarded counter did not move")
	}
	for _, ps := range payload.Cluster.Peers {
		if !ps.Self && ps.Breaker == "" {
			t.Fatalf("peer %s missing breaker state", ps.Addr)
		}
	}
}

// TestClusterBatchRoutesAndDegrades routes a batch across the fleet, then
// partitions one owner and asserts its share of a second batch comes back
// degraded rather than failed.
func TestClusterBatchRoutesAndDegrades(t *testing.T) {
	fleet := startChaosFleet(t, 3, func(i int, ccfg *cluster.Config, _ *Config) {
		ccfg.Breaker = cluster.BreakerConfig{FailureThreshold: 2, OpenFor: time.Hour}
	})
	entry := fleet.nodes[0]

	makeBatch := func(n int) []byte {
		wire := BatchWireRequest{Requests: make([]EstimateRequest, n)}
		for i := range wire.Requests {
			wire.Requests[i] = EstimateRequest{
				Dataset: "chaos", Field: fmt.Sprintf("f%d", i),
				Rows: 24, Cols: 24, Data: testBuffer(24, 24, 7), Eps: 1e-3,
			}
		}
		body, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	postBatch := func(body []byte) BatchWireResponse {
		t.Helper()
		resp, err := http.Post(entry.addr+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			out, _ := io.ReadAll(resp.Body)
			t.Fatalf("batch status %d: %s", resp.StatusCode, out)
		}
		var out BatchWireResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	const n = 24
	body := makeBatch(n)
	out := postBatch(body)
	if len(out.Results) != n {
		t.Fatalf("got %d results, want %d", len(out.Results), n)
	}
	for i, item := range out.Results {
		if item.Error != nil {
			t.Fatalf("healthy batch item %d errored: %+v", i, item.Error)
		}
		if item.Result.Degraded {
			t.Fatalf("healthy batch item %d marked degraded", i)
		}
	}

	// Drop both remote owners: every forwarded group must fall back to
	// degraded local serving, with zero failed items.
	fleet.net.Partition(entry.addr, fleet.nodes[1].addr)
	fleet.net.Partition(entry.addr, fleet.nodes[2].addr)
	out = postBatch(body)
	degraded := 0
	for i, item := range out.Results {
		if item.Error != nil {
			t.Fatalf("partitioned batch item %d errored: %+v", i, item.Error)
		}
		if item.Result.Degraded {
			degraded++
		}
		if item.Result.CR <= 0 {
			t.Fatalf("partitioned batch item %d has nonsense CR", i)
		}
	}
	if degraded == 0 {
		t.Fatal("no item was served degraded despite a full partition")
	}
	t.Logf("partitioned batch: %d/%d degraded", degraded, n)
}

// TestClusterSyntaxErrorBeforeCapIs400: a fleet node decodes a body under
// the single-node contract, so a syntax error the decoder meets before the
// size cap is a 400 — not the 413 that reading the whole over-cap body
// first would give.
func TestClusterSyntaxErrorBeforeCapIs400(t *testing.T) {
	fleet := startChaosFleet(t, 2, func(_ int, _ *cluster.Config, scfg *Config) {
		scfg.MaxBodyBytes = 64
	})
	body := []byte(`{"rows":}` + strings.Repeat(" ", 256))
	for _, path := range []string{"/v1/estimate", "/v1/batch"} {
		resp, out := postJSON(t, fleet.nodes[0].addr+path, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", path, resp.StatusCode, out)
		}
		if we := wireErrorOf(t, out); we.Kind != "invalid_buffer" {
			t.Fatalf("%s: kind %q, want invalid_buffer (%s)", path, we.Kind, we.Message)
		}
	}
}

// TestRoutingKeyIgnoresEps: the probes of one ε search on an anonymous
// buffer differ only in the bound, so they must share one owner — the
// one whose feature cache holds the buffer's dataset features. Content
// and shape still separate keys.
func TestRoutingKeyIgnoresEps(t *testing.T) {
	data := testBuffer(24, 24, 5)
	req := EstimateRequest{Rows: 24, Cols: 24, Data: data, Eps: 1e-3}
	key := routingKey(&req)
	for _, eps := range []float64{1e-1, 1e-2, 1e-4, 0} {
		probe := req
		probe.Eps = eps
		if got := routingKey(&probe); got != key {
			t.Errorf("eps %g routes to %s, eps 1e-3 to %s", eps, got, key)
		}
	}
	other := req
	other.Rows, other.Cols = 12, 48
	if routingKey(&other) == key {
		t.Error("a reshaped buffer shares the routing key")
	}
	changed := req
	changed.Data = append([]float64(nil), data...)
	changed.Data[0]++
	if routingKey(&changed) == key {
		t.Error("changed data shares the routing key")
	}
}
