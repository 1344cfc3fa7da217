package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/retry"
)

// ---------------------------------------------------------------------------
// Ring

func TestRingOwnersDistinctAndDeterministic(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c", "http://d"}
	r, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"pressure/x", "velocity/y", "qmcpack", ""} {
		owners := r.Owners(key, 3)
		if len(owners) != 3 {
			t.Fatalf("Owners(%q) = %d peers, want 3", key, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%q) repeated %s", key, o)
			}
			seen[o] = true
		}
		again := r.Owners(key, 3)
		for i := range owners {
			if owners[i] != again[i] {
				t.Fatalf("Owners(%q) not deterministic: %v vs %v", key, owners, again)
			}
		}
	}
	if got := r.Owners("k", 99); len(got) != len(peers) {
		t.Fatalf("Owners clamp: got %d, want %d", len(got), len(peers))
	}
}

func TestRingBalance(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c"}
	r, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owners(fmt.Sprintf("key-%d", i), 1)[0]]++
	}
	for p, c := range counts {
		frac := float64(c) / n
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("peer %s owns %.0f%% of keys — ring badly imbalanced: %v", p, 100*frac, counts)
		}
	}
}

func TestRingRejectsBadPeerLists(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := NewRing([]string{"http://a", "http://a"}); err == nil {
		t.Fatal("duplicate peer accepted")
	}
	if _, err := NewRing([]string{"http://a", ""}); err == nil {
		t.Fatal("empty peer address accepted")
	}
}

// ---------------------------------------------------------------------------
// Breaker

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: time.Second})
	b.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		if !b.Acquire() {
			t.Fatalf("closed breaker refused acquire %d", i)
		}
		b.Failure()
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after threshold failures state = %v, want open", got)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	if b.Acquire() {
		t.Fatal("open breaker admitted a request before OpenFor elapsed")
	}

	clock = clock.Add(1100 * time.Millisecond)
	if !b.Acquire() {
		t.Fatal("breaker past OpenFor refused the half-open probe")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if b.Acquire() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Failure() // probe fails → reopen
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after failed probe state = %v, want open", got)
	}

	clock = clock.Add(1100 * time.Millisecond)
	if !b.Acquire() {
		t.Fatal("reopened breaker refused second half-open probe")
	}
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after successful probe state = %v, want closed", got)
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}
}

func TestBreakerCancelReleasesProbeSlot(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Second})
	b.now = func() time.Time { return clock }
	b.Acquire()
	b.Failure()
	clock = clock.Add(2 * time.Second)
	if !b.Acquire() {
		t.Fatal("no half-open probe admitted")
	}
	b.Cancel() // abandoned leg: no verdict
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cancel = %v, want half-open", got)
	}
	if !b.Acquire() {
		t.Fatal("canceled probe slot was not released")
	}
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBreakerSuccessResetsConsecutiveFailures(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3})
	for i := 0; i < 10; i++ {
		b.Acquire()
		b.Failure()
		b.Acquire()
		b.Failure()
		b.Acquire()
		b.Success() // interleaved success: never 3 consecutive
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (failures were never consecutive)", got)
	}
}

// ---------------------------------------------------------------------------
// Prober

func TestProberEjectsAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if healthy.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()

	flips := make(chan bool, 16)
	p := newProber(HealthConfig{
		Interval:   10 * time.Millisecond,
		Jitter:     -1,
		Timeout:    200 * time.Millisecond,
		EjectAfter: 3,
		Seed:       1,
	}, srv.Client(), []string{srv.URL}, func(_ string, h bool) { flips <- h })
	p.start()
	defer p.stop()

	waitFlip := func(want bool) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case h := <-flips:
				if h == want {
					return
				}
			case <-deadline:
				t.Fatalf("timed out waiting for health flip to %v", want)
			}
		}
	}

	healthy.Store(false)
	waitFlip(false)
	if p.healthyPeer(srv.URL) {
		t.Fatal("peer still routable after ejection")
	}
	healthy.Store(true)
	waitFlip(true)
	if !p.healthyPeer(srv.URL) {
		t.Fatal("peer not restored after successful probe")
	}
	if p.peers[srv.URL].ejections.Load() == 0 {
		t.Fatal("ejection not counted")
	}
}

// ---------------------------------------------------------------------------
// Cluster forwarding

// rtFunc adapts a function to http.RoundTripper so tests can script peer
// behavior without real listeners.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func okResponse(body string) *http.Response {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(body)),
	}
}

func statusResponse(code int, hdr http.Header) *http.Response {
	if hdr == nil {
		hdr = http.Header{}
	}
	return &http.Response{StatusCode: code, Header: hdr, Body: io.NopCloser(strings.NewReader(""))}
}

// attemptLog records the order in which peers were attempted.
type attemptLog struct {
	mu    sync.Mutex
	hosts []string
}

func (l *attemptLog) add(host string) {
	l.mu.Lock()
	l.hosts = append(l.hosts, host)
	l.mu.Unlock()
}

func (l *attemptLog) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.hosts...)
}

func newTestCluster(t *testing.T, peers []string, transport http.RoundTripper, mod func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Self:       peers[0],
		Peers:      peers,
		Replicas:   2,
		Transport:  transport,
		Obs:        obs.NewRegistry(),
		HedgeAfter: -1, // hedging off unless a test opts in
		Retry: retry.Policy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
			Seed:        1,
		},
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterForwardsToFirstEligiblePeer(t *testing.T) {
	var log attemptLog
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		log.add(r.URL.Host)
		if got := r.Header.Get(ForwardDepthHeader); got != "1" {
			t.Errorf("forward depth header = %q, want 1", got)
		}
		if got := r.Header.Get("X-Request-ID"); got != "rid-1" {
			t.Errorf("request id header = %q, want rid-1", got)
		}
		return okResponse(`{"cr":2.5}`), nil
	})
	c := newTestCluster(t, []string{"http://self", "http://b", "http://cc"}, rt, nil)
	res, err := c.Do(context.Background(), DoRequest{
		Peers: []string{"http://b", "http://cc"},
		Path:  "/v1/estimate",
		RID:   "rid-1",
		Body:  []byte(`{}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peer != "http://b" || res.Status != http.StatusOK {
		t.Fatalf("res = %+v, want peer http://b status 200", res)
	}
	if string(res.Body) != `{"cr":2.5}` {
		t.Fatalf("body = %q", res.Body)
	}
	if got := log.list(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("attempts = %v, want [b]", got)
	}
}

func TestCluster4xxPassesThroughWithoutRetry(t *testing.T) {
	var log attemptLog
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		log.add(r.URL.Host)
		return statusResponse(http.StatusBadRequest, nil), nil
	})
	c := newTestCluster(t, []string{"http://self", "http://b", "http://cc"}, rt, nil)
	res, err := c.Do(context.Background(), DoRequest{
		Peers: []string{"http://b", "http://cc"},
		Path:  "/v1/estimate",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 passthrough", res.Status)
	}
	if got := log.list(); len(got) != 1 {
		t.Fatalf("4xx was retried: attempts %v", got)
	}
}

func TestClusterRotatesOffFailedPeer(t *testing.T) {
	var log attemptLog
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		log.add(r.URL.Host)
		if r.URL.Host == "b" {
			return nil, errors.New("connection refused")
		}
		return okResponse("ok"), nil
	})
	c := newTestCluster(t, []string{"http://self", "http://b", "http://cc"}, rt, nil)
	res, err := c.Do(context.Background(), DoRequest{
		Peers: []string{"http://b", "http://cc"},
		Path:  "/v1/estimate",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peer != "http://cc" {
		t.Fatalf("peer = %s, want rotation to http://cc", res.Peer)
	}
	if got := log.list(); len(got) != 2 || got[0] != "b" || got[1] != "cc" {
		t.Fatalf("attempts = %v, want [b cc]", got)
	}
}

// TestHedgedRequestNeverRetriesSameDeadPeerTwiceInARow pins the
// retry×hedging rotation contract: with every candidate dead, successive
// attempts must alternate peers — the retry loop never hammers the peer
// that just failed while an alternative exists.
func TestHedgedRequestNeverRetriesSameDeadPeerTwiceInARow(t *testing.T) {
	var log attemptLog
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		log.add(r.URL.Host)
		return nil, errors.New("connection refused")
	})
	c := newTestCluster(t, []string{"http://self", "http://b", "http://cc"}, rt, func(cfg *Config) {
		cfg.HedgeAfter = 50 * time.Millisecond // hedging on; legs fail before it fires
		cfg.Retry.MaxAttempts = 4
		// Threshold above the attempt count so breakers do not mask rotation.
		cfg.Breaker = BreakerConfig{FailureThreshold: 10}
	})
	_, err := c.Do(context.Background(), DoRequest{
		Peers: []string{"http://b", "http://cc"},
		Path:  "/v1/estimate",
		Hedge: true,
	})
	if err == nil {
		t.Fatal("expected failure with every peer dead")
	}
	got := log.list()
	if len(got) < 3 {
		t.Fatalf("expected several rotated attempts, got %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("attempt %d retried the same dead peer twice in a row: %v", i, got)
		}
	}
}

// TestRetryAfterHoldIsPerPeer pins the other retry×hedging contract: a
// Retry-After hint from one overloaded peer holds that peer only — the
// next send goes to a different peer immediately, not after the hint.
func TestRetryAfterHoldIsPerPeer(t *testing.T) {
	var log attemptLog
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		log.add(r.URL.Host)
		if r.URL.Host == "b" {
			return statusResponse(http.StatusServiceUnavailable,
				http.Header{"Retry-After": []string{"30"}}), nil
		}
		return okResponse("ok"), nil
	})
	c := newTestCluster(t, []string{"http://self", "http://b", "http://cc"}, rt, nil)

	start := time.Now()
	res, err := c.Do(context.Background(), DoRequest{
		Peers: []string{"http://b", "http://cc"},
		Path:  "/v1/estimate",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peer != "http://cc" {
		t.Fatalf("peer = %s, want http://cc", res.Peer)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("send to the healthy peer was delayed %v by another peer's Retry-After", elapsed)
	}

	// The held peer must be skipped outright on the next request.
	log.mu.Lock()
	log.hosts = nil
	log.mu.Unlock()
	res, err = c.Do(context.Background(), DoRequest{
		Peers: []string{"http://b", "http://cc"},
		Path:  "/v1/estimate",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := log.list(); len(got) != 1 || got[0] != "cc" {
		t.Fatalf("attempts = %v, want the held peer skipped entirely ([cc])", got)
	}
	st := c.Stats()
	held := false
	for _, p := range st.Peers {
		if p.Addr == "http://b" && p.HoldMs > 0 {
			held = true
		}
	}
	if !held {
		t.Fatalf("stats do not show the Retry-After hold: %+v", st.Peers)
	}
}

func TestClusterHedgeWinsOnSlowPrimary(t *testing.T) {
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "b" { // slow primary: parks until canceled
			select {
			case <-time.After(2 * time.Second):
				return okResponse("slow"), nil
			case <-r.Context().Done():
				return nil, r.Context().Err()
			}
		}
		return okResponse("fast"), nil
	})
	c := newTestCluster(t, []string{"http://self", "http://b", "http://cc"}, rt, func(cfg *Config) {
		cfg.HedgeAfter = 10 * time.Millisecond
	})
	start := time.Now()
	res, err := c.Do(context.Background(), DoRequest{
		Peers: []string{"http://b", "http://cc"},
		Path:  "/v1/estimate",
		Hedge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hedged || res.Peer != "http://cc" {
		t.Fatalf("res = %+v, want hedged win from http://cc", res)
	}
	if string(res.Body) != "fast" {
		t.Fatalf("body = %q", res.Body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged request took %v — loser was not raced", elapsed)
	}
	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges = %d wins = %d, want 1/1", st.Hedges, st.HedgeWins)
	}
}

// TestClusterSharedRequestIDKeepsAnswersApart: two concurrent forwards
// that carry the same client request ID but different bodies each get the
// answer to their own body. The upstream echoes the body and holds every
// call until both have arrived, so the two are in flight together; a
// forward that joined the other's call would never arrive, and the 5 s
// bound turns that into a failure instead of a hang.
func TestClusterSharedRequestIDKeepsAnswersApart(t *testing.T) {
	var arrived atomic.Int64
	both := make(chan struct{})
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
		return okResponse(string(body)), nil
	})
	c := newTestCluster(t, []string{"http://self", "http://b"}, rt, nil)

	bodies := []string{`{"a":1}`, `{"b":2}`}
	got := make([]string, len(bodies))
	errs := make([]error, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Do(context.Background(), DoRequest{
				Peers: []string{"http://b"}, Path: "/v1/estimate", RID: "shared", Body: []byte(body),
			})
			got[i], errs[i] = string(res.Body), err
		}()
	}
	wg.Wait()
	for i, body := range bodies {
		if errs[i] != nil || got[i] != body {
			t.Errorf("caller %d sent %s: got %q, error %v", i, body, got[i], errs[i])
		}
	}
}

func TestClusterNoPeersReturnsErrNoPeers(t *testing.T) {
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		return statusResponse(http.StatusInternalServerError, nil), nil
	})
	c := newTestCluster(t, []string{"http://self", "http://b"}, rt, func(cfg *Config) {
		cfg.Breaker = BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour}
	})
	// First Do trips the only remote's breaker.
	if _, err := c.Do(context.Background(), DoRequest{Peers: []string{"http://b"}, Path: "/x"}); err == nil {
		t.Fatal("expected failure")
	}
	// Second Do finds no eligible peer at all.
	_, err := c.Do(context.Background(), DoRequest{Peers: []string{"http://b"}, Path: "/x"})
	if !errors.Is(err, ErrNoPeers) {
		t.Fatalf("err = %v, want ErrNoPeers", err)
	}
}

func TestClusterOwnershipHelpers(t *testing.T) {
	rt := rtFunc(func(r *http.Request) (*http.Response, error) { return okResponse("ok"), nil })
	peers := []string{"http://self", "http://b", "http://cc"}
	c := newTestCluster(t, peers, rt, nil)
	ownedLocally := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("ds/f%d", i)
		owners := c.Owners(key)
		if len(owners) != 2 {
			t.Fatalf("owners(%q) = %v, want 2 replicas", key, owners)
		}
		if c.OwnsLocally(key) {
			ownedLocally++
		}
		for _, p := range c.RemoteOwners(key) {
			if p == c.Self() {
				t.Fatal("RemoteOwners contains self")
			}
		}
	}
	// 2-of-3 replica sets: roughly two-thirds of keys should be local.
	if ownedLocally < 60 || ownedLocally > 190 {
		t.Fatalf("local ownership %d/200 is implausible for 2-of-3 replication", ownedLocally)
	}
}

func TestMetricLabel(t *testing.T) {
	if got := MetricLabel("http://127.0.0.1:8080"); got != "127_0_0_1_8080" {
		t.Fatalf("MetricLabel = %q", got)
	}
	if got := MetricLabel("https://Node-A.local:9"); got != "node_a_local_9" {
		t.Fatalf("MetricLabel = %q", got)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := New(Config{Self: "http://a", Peers: []string{"http://b"}}); err == nil {
		t.Fatal("self outside peer list accepted")
	}
	if _, err := New(Config{Peers: []string{"http://b"}}); err == nil {
		t.Fatal("missing self accepted")
	}
}

// TestClusterQuota429IsBreakerSuccessNoHold pins the quota wire contract
// at the forwarding layer: a tenant's 429 passes through verbatim with
// its Retry-After preserved, counts as a breaker Success (the peer
// answered authoritatively — one tenant being over budget is not peer
// unhealth), and records no per-peer hold, so the same peer keeps
// serving other tenants immediately.
func TestClusterQuota429IsBreakerSuccessNoHold(t *testing.T) {
	var log attemptLog
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		log.add(r.URL.Host)
		return statusResponse(http.StatusTooManyRequests,
			http.Header{"Retry-After": []string{"7"}}), nil
	})
	c := newTestCluster(t, []string{"http://self", "http://b", "http://cc"}, rt, nil)

	res, err := c.Do(context.Background(), DoRequest{
		Peers: []string{"http://b", "http://cc"},
		Path:  "/v1/estimate",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusTooManyRequests || res.Peer != "http://b" {
		t.Fatalf("res = %+v, want 429 passthrough from http://b", res)
	}
	if res.RetryAfter != "7" {
		t.Fatalf("RetryAfter = %q, want the peer's hint preserved", res.RetryAfter)
	}
	if got := log.list(); len(got) != 1 {
		t.Fatalf("429 was retried across peers: attempts %v", got)
	}

	// No hold and no breaker damage: the very next request must go straight
	// back to the same primary.
	log.mu.Lock()
	log.hosts = nil
	log.mu.Unlock()
	if _, err := c.Do(context.Background(), DoRequest{
		Peers: []string{"http://b", "http://cc"},
		Path:  "/v1/estimate",
	}); err != nil {
		t.Fatal(err)
	}
	if got := log.list(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("attempts = %v, want [b]: a quota 429 must not hold or eject the peer", got)
	}
	for _, p := range c.Stats().Peers {
		if p.Addr == "http://b" && p.HoldMs > 0 {
			t.Fatalf("quota 429 recorded a per-peer hold: %+v", p)
		}
	}
}
