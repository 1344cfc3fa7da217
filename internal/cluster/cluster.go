package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/retry"
)

// ForwardDepthHeader carries the hop count of a forwarded request. A node
// receiving a request at or past the configured MaxForwardDepth serves it
// locally instead of forwarding again — the loop guard of the
// coordinator-free design (no node has authoritative membership, so
// disagreeing rings must not bounce a request forever).
const ForwardDepthHeader = "X-Crest-Forward-Depth"

// ServedByHeader names the peer that actually produced a forwarded
// response, so clients and tests can observe routing decisions.
const ServedByHeader = "X-Crest-Served-By"

// ErrNoPeers reports that no remote owner is currently eligible: every
// candidate is ejected by health probing, opened by its breaker, or held
// by a Retry-After hint. The server reacts by serving from the local
// model and marking the response degraded.
var ErrNoPeers = errors.New("cluster: no eligible peer")

// maxResponseBytes caps a forwarded response body.
const maxResponseBytes = 64 << 20

// The adaptive hedge delay is the hedgePercentile of recent forward
// latencies, clamped to [hedgeMin, hedgeMax].
const (
	hedgePercentile = 0.90
	hedgeMin        = 2 * time.Millisecond
	hedgeMax        = 250 * time.Millisecond
)

// Config assembles a Cluster. Self and Peers are required; everything
// else has serviceable defaults.
type Config struct {
	// Self is this node's own base URL; it must appear in Peers. Requests
	// owned by Self are served locally by the caller, never forwarded.
	Self string
	// Peers is the full static peer list (including Self), each a base
	// URL such as "http://10.0.0.1:8080".
	Peers []string

	// Replicas is the owner replica-set size per key (default
	// min(2, len(Peers))).
	Replicas int

	// MaxForwardDepth is the hop budget: a request arriving with this
	// depth (or more) is served locally (default 1 — one forwarding hop,
	// then the request lands).
	MaxForwardDepth int

	// ForwardTimeout bounds one forwarded request (default 10s).
	ForwardTimeout time.Duration

	// HedgeAfter is the fixed delay before the backup replica is tried.
	// Zero selects the adaptive delay: the hedgePercentile of recent
	// forward latencies, clamped to [hedgeMin, hedgeMax]. Negative
	// disables hedging.
	HedgeAfter time.Duration

	// Retry drives the per-request forwarding loop; each retry attempt
	// rotates to a different eligible owner (never the peer that just
	// failed, unless it is the only one). Zero-value fields pick
	// MaxAttempts 3, BaseDelay 25ms, MaxDelay 1s.
	Retry retry.Policy

	// Breaker tunes every peer's circuit breaker; Health the readiness
	// prober.
	Breaker BreakerConfig
	Health  HealthConfig

	// Transport is the HTTP transport of forwards and probes (default
	// http.DefaultTransport) — the seam the chaos network injector wraps.
	Transport http.RoundTripper

	// Obs receives the cluster_* metric series (default obs.Default()).
	Obs *obs.Registry

	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Peers) {
		c.Replicas = len(c.Peers)
	}
	if c.MaxForwardDepth <= 0 {
		c.MaxForwardDepth = 1
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 10 * time.Second
	}
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 3
	}
	if c.Retry.BaseDelay <= 0 {
		c.Retry.BaseDelay = 25 * time.Millisecond
	}
	if c.Retry.MaxDelay <= 0 {
		c.Retry.MaxDelay = time.Second
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// clusterMetrics are the registry handles of the cluster_* series.
type clusterMetrics struct {
	forwarded    *obs.Counter
	forwardFails *obs.Counter
	hedges       *obs.Counter
	hedgeWins    *obs.Counter
	breakerTrips *obs.Counter
	ejections    *obs.Counter
	recoveries   *obs.Counter
	latency      *obs.Histogram
}

func newClusterMetrics(r *obs.Registry) clusterMetrics {
	return clusterMetrics{
		forwarded:    r.Counter("cluster_forwarded_total"),
		forwardFails: r.Counter("cluster_forward_failures_total"),
		hedges:       r.Counter("cluster_hedges_total"),
		hedgeWins:    r.Counter("cluster_hedge_wins_total"),
		breakerTrips: r.Counter("cluster_breaker_trips_total"),
		ejections:    r.Counter("cluster_ejections_total"),
		recoveries:   r.Counter("cluster_recoveries_total"),
		latency:      r.Histogram("cluster_forward_seconds"),
	}
}

// Cluster is the replication/routing layer of one serving node. Construct
// with New, Start the health prober, and Close at shutdown. All methods
// are safe for concurrent use.
type Cluster struct {
	cfg      Config
	ring     *Ring
	client   *http.Client
	breakers map[string]*Breaker
	prober   *prober
	m        clusterMetrics

	// Per-peer Retry-After holds: a peer that shed with a hint is not
	// retried before the hold expires — but other peers are unaffected,
	// which the retry×hedging interaction tests pin.
	holdMu sync.Mutex
	holds  map[string]time.Time

	lat latencyRing
}

// New validates the configuration and builds the cluster layer. The
// health prober is not started until Start.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, errors.New("cluster: no self address")
	}
	ring, err := NewRing(cfg.Peers)
	if err != nil {
		return nil, err
	}
	selfIn := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			selfIn = true
		}
	}
	if !selfIn {
		return nil, fmt.Errorf("cluster: self %q not in peer list", cfg.Self)
	}
	c := &Cluster{
		cfg:  cfg,
		ring: ring,
		// No client-level Timeout: each forward carries ForwardTimeout in
		// its context instead, which cancels cleanly through any custom
		// RoundTripper (the chaos injector's blackhole included).
		client:   &http.Client{Transport: cfg.Transport},
		breakers: make(map[string]*Breaker, len(cfg.Peers)),
		m:        newClusterMetrics(cfg.Obs),
		holds:    make(map[string]time.Time),
	}
	c.lat.init(256)
	var remotes []string
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			continue
		}
		remotes = append(remotes, p)
		b := NewBreaker(cfg.Breaker)
		stateGauge := cfg.Obs.Gauge("cluster_breaker_state_" + MetricLabel(p))
		b.onTransition(func(s BreakerState) {
			stateGauge.Set(int64(s))
			if s == BreakerOpen {
				c.m.breakerTrips.Inc()
			}
		})
		c.breakers[p] = b
	}
	c.prober = newProber(cfg.Health, c.client, remotes, func(peer string, healthy bool) {
		c.cfg.Obs.Gauge("cluster_peer_healthy_" + MetricLabel(peer)).Set(boolGauge(healthy))
		if healthy {
			c.m.recoveries.Inc()
			c.cfg.Logf("cluster: peer %s recovered", peer)
		} else {
			c.m.ejections.Inc()
			c.cfg.Logf("cluster: peer %s ejected after consecutive probe failures", peer)
		}
	})
	for _, p := range remotes {
		cfg.Obs.Gauge("cluster_peer_healthy_" + MetricLabel(p)).Set(1)
	}
	return c, nil
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// MetricLabel sanitizes a peer URL into a metric-name suffix: lowercase,
// scheme stripped, every non-alphanumeric byte mapped to '_'.
func MetricLabel(peer string) string {
	s := strings.ToLower(peer)
	s = strings.TrimPrefix(s, "http://")
	s = strings.TrimPrefix(s, "https://")
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Start launches the readiness prober.
func (c *Cluster) Start() { c.prober.start() }

// Close stops the prober and releases idle transport connections.
func (c *Cluster) Close() {
	c.prober.stop()
	if t, ok := c.cfg.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// Self returns this node's own peer URL.
func (c *Cluster) Self() string { return c.cfg.Self }

// Peers returns the full static peer list.
func (c *Cluster) Peers() []string { return c.ring.Peers() }

// MaxForwardDepth returns the configured hop budget.
func (c *Cluster) MaxForwardDepth() int { return c.cfg.MaxForwardDepth }

// Owners returns the key's replica set in ring preference order.
func (c *Cluster) Owners(key string) []string {
	return c.ring.Owners(key, c.cfg.Replicas)
}

// OwnsLocally reports whether this node is in the key's replica set.
func (c *Cluster) OwnsLocally(key string) bool {
	for _, p := range c.Owners(key) {
		if p == c.cfg.Self {
			return true
		}
	}
	return false
}

// RemoteOwners returns the key's replica set with Self removed, in
// preference order.
func (c *Cluster) RemoteOwners(key string) []string {
	owners := c.Owners(key)
	out := owners[:0]
	for _, p := range owners {
		if p != c.cfg.Self {
			out = append(out, p)
		}
	}
	return out
}

// DoRequest is one forwarding ask: the candidate peers in preference
// order plus the opaque HTTP payload to deliver.
type DoRequest struct {
	// Peers are the candidate owners in preference order, Self excluded.
	Peers []string
	// Path is the request path on the peer (e.g. "/v1/estimate"); Query
	// the raw query string to append, if any.
	Path  string
	Query string
	// RID is the request ID, threaded to the peer as X-Request-ID.
	RID string
	// Depth is the incoming request's forward depth; the outgoing hop
	// carries Depth+1.
	Depth int
	// Body is the request payload; ContentType its media type (default
	// application/json).
	Body        []byte
	ContentType string
	// Hedge enables the backup-replica race for this request.
	Hedge bool
}

// Result is a completed forward: the peer's status and body, to be
// relayed verbatim. Statuses below 500 complete a Do — a 4xx is the
// client's problem wherever it is served, so it is passed through rather
// than retried against other replicas.
type Result struct {
	Status      int
	Body        []byte
	ContentType string
	Peer        string
	// RetryAfter carries the peer's Retry-After header on pass-through
	// responses (a tenant quota 429), so the relaying node can hand the
	// backoff hint on to the client instead of dropping it.
	RetryAfter string
	// Hedged reports that the backup leg produced this result.
	Hedged bool
}

// Do forwards the request to the first eligible candidate peer, hedging
// to a backup replica when the primary is slow and rotating to a different
// peer on retryable failure. Every call is its own forward: two calls that
// share a request ID still carry their own bodies and get their own
// answers. It returns ErrNoPeers (possibly wrapped) when no candidate is
// currently eligible — the caller's cue to degrade to local serving.
func (c *Cluster) Do(ctx context.Context, req DoRequest) (Result, error) {
	var res Result
	lastFailed := ""
	err := c.cfg.Retry.Do(ctx, func(ctx context.Context) error {
		primary := c.acquireEligible(req.Peers, lastFailed)
		if primary == "" {
			// Rotation exhausted the candidate set; the lastFailed
			// exclusion is advisory, so fall back to any eligible peer
			// (retrying the same peer beats not trying at all) before
			// declaring the fleet unreachable.
			primary = c.acquireEligible(req.Peers, "")
		}
		if primary == "" {
			return retry.Permanent(fmt.Errorf("%w: %d candidate(s) all ejected, open or held",
				ErrNoPeers, len(req.Peers)))
		}
		r, err := c.attempt(ctx, primary, req)
		if err != nil {
			lastFailed = primary
			c.m.forwardFails.Inc()
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// acquireEligible returns the first candidate that is healthy, not under
// a Retry-After hold, not skip, and whose breaker admits a request — with
// the breaker slot acquired. Empty when none qualifies.
func (c *Cluster) acquireEligible(peers []string, skip string) string {
	now := time.Now()
	for _, p := range peers {
		if p == skip || p == c.cfg.Self {
			continue
		}
		if !c.prober.healthyPeer(p) {
			continue
		}
		if c.heldUntil(p).After(now) {
			continue
		}
		b := c.breakers[p]
		if b == nil || !b.Acquire() {
			continue
		}
		return p
	}
	return ""
}

// attempt runs one hedged forward: the primary leg immediately, a backup
// leg on a different eligible replica once the hedge delay elapses. The
// first leg to complete with a relayable result wins and the loser's
// context is canceled; a losing leg's cancellation is recorded as neutral
// on its breaker, never as a failure.
func (c *Cluster) attempt(ctx context.Context, primary string, req DoRequest) (Result, error) {
	type legDone struct {
		res  Result
		err  error
		peer string
	}
	done := make(chan legDone, 2)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	go func() {
		r, err := c.forwardLeg(pctx, primary, req)
		done <- legDone{r, err, primary}
	}()

	var hedgeCh <-chan time.Time
	if req.Hedge && c.cfg.HedgeAfter >= 0 && len(req.Peers) > 1 {
		t := time.NewTimer(c.hedgeDelay())
		defer t.Stop()
		hedgeCh = t.C
	}
	var bcancel context.CancelFunc
	pending := 1
	var firstErr error
	for pending > 0 {
		select {
		case leg := <-done:
			pending--
			if leg.err == nil {
				// Cancel the loser; its goroutine completes into the
				// buffered channel and records a neutral breaker verdict.
				if leg.peer == primary && bcancel != nil {
					bcancel()
				} else if leg.peer != primary {
					pcancel()
				}
				res := leg.res
				res.Hedged = leg.peer != primary
				if res.Hedged {
					c.m.hedgeWins.Inc()
				}
				return res, nil
			}
			if firstErr == nil {
				firstErr = leg.err
			}
		case <-hedgeCh:
			hedgeCh = nil
			backup := c.acquireEligible(req.Peers, primary)
			if backup == "" {
				continue
			}
			c.m.hedges.Inc()
			var bctx context.Context
			bctx, bcancel = context.WithCancel(ctx)
			defer bcancel()
			pending++
			go func() {
				r, err := c.forwardLeg(bctx, backup, req)
				done <- legDone{r, err, backup}
			}()
		case <-ctx.Done():
			pcancel()
			if bcancel != nil {
				bcancel()
			}
			return Result{}, crerr.Canceled(ctx.Err())
		}
	}
	return Result{}, firstErr
}

// hedgeDelay resolves the backup-send delay: the fixed HedgeAfter when
// configured, otherwise the hedgePercentile of recent forward latencies
// clamped to [hedgeMin, hedgeMax] (hedgeMax before enough samples exist —
// hedge conservatively until the latency profile is known).
func (c *Cluster) hedgeDelay() time.Duration {
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	p, ok := c.lat.percentile(hedgePercentile)
	if !ok {
		return hedgeMax
	}
	d := time.Duration(p * float64(time.Second))
	if d < hedgeMin {
		d = hedgeMin
	}
	if d > hedgeMax {
		d = hedgeMax
	}
	return d
}

// forwardLeg delivers the payload to one peer and settles that peer's
// breaker slot: Success on any relayable status (2xx–4xx), Failure on
// transport errors and 5xx, Cancel when this leg lost a hedge race.
func (c *Cluster) forwardLeg(ctx context.Context, peer string, req DoRequest) (Result, error) {
	b := c.breakers[peer]
	lctx, cancel := context.WithTimeout(ctx, c.cfg.ForwardTimeout)
	defer cancel()
	url := peer + req.Path
	if req.Query != "" {
		url += "?" + req.Query
	}
	hreq, err := http.NewRequestWithContext(lctx, http.MethodPost, url, bytes.NewReader(req.Body))
	if err != nil {
		b.Cancel()
		return Result{}, retry.Permanent(fmt.Errorf("cluster: build forward to %s: %w", peer, err))
	}
	ct := req.ContentType
	if ct == "" {
		ct = "application/json"
	}
	hreq.Header.Set("Content-Type", ct)
	if req.RID != "" {
		hreq.Header.Set("X-Request-ID", req.RID)
	}
	hreq.Header.Set(ForwardDepthHeader, strconv.Itoa(req.Depth+1))

	t0 := time.Now()
	resp, err := c.client.Do(hreq)
	if err != nil {
		switch {
		case ctx.Err() != nil:
			// The leg was abandoned from above (hedge loser, caller gave
			// up): neutral — the peer's behavior was never observed.
			b.Cancel()
			return Result{}, crerr.Canceled(ctx.Err())
		case errors.Is(lctx.Err(), context.DeadlineExceeded):
			// The peer itself blew the forward budget: that is a failure.
			b.Failure()
			return Result{}, fmt.Errorf("cluster: forward to %s timed out after %s: %w",
				peer, c.cfg.ForwardTimeout, err)
		default:
			b.Failure()
			return Result{}, fmt.Errorf("cluster: forward to %s: %w", peer, err)
		}
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	resp.Body.Close()
	if rerr != nil {
		b.Failure()
		return Result{}, fmt.Errorf("cluster: read response from %s: %w", peer, rerr)
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		// The peer shed or is draining: honor its Retry-After as a
		// per-peer hold so rotation and hedging move on immediately while
		// this peer backs off.
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			c.hold(peer, time.Duration(secs)*time.Second)
		}
		b.Failure()
		return Result{}, fmt.Errorf("%w: peer %s shed the forward", crerr.ErrOverloaded, peer)
	case resp.StatusCode >= 500:
		b.Failure()
		return Result{}, fmt.Errorf("cluster: peer %s answered HTTP %d: %s",
			peer, resp.StatusCode, firstLine(body))
	default:
		// Everything else — including a tenant quota 429 — passes through
		// as a breaker Success with no per-peer hold: the peer answered
		// promptly and authoritatively; a single tenant being over budget
		// says nothing about the peer's health, and holding or ejecting it
		// would let one tenant's storm evict the peer for everyone.
		b.Success()
		dur := time.Since(t0).Seconds()
		c.lat.observe(dur)
		c.m.latency.Observe(dur)
		c.m.forwarded.Inc()
		return Result{
			Status:      resp.StatusCode,
			Body:        body,
			ContentType: resp.Header.Get("Content-Type"),
			RetryAfter:  resp.Header.Get("Retry-After"),
			Peer:        peer,
		}, nil
	}
}

// firstLine trims a response body to one log-friendly line.
func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 160 {
		s = s[:160]
	}
	return s
}

// hold records a Retry-After hold for one peer.
func (c *Cluster) hold(peer string, d time.Duration) {
	until := time.Now().Add(d)
	c.holdMu.Lock()
	if until.After(c.holds[peer]) {
		c.holds[peer] = until
	}
	c.holdMu.Unlock()
}

// heldUntil returns the peer's current hold deadline (zero when none).
func (c *Cluster) heldUntil(peer string) time.Time {
	c.holdMu.Lock()
	defer c.holdMu.Unlock()
	return c.holds[peer]
}

// ---------------------------------------------------------------------------
// Latency ring

// latencyRing is a small mutex-guarded ring of recent forward latencies
// (seconds) backing the adaptive hedge delay. A fixed window tracks the
// current regime instead of averaging over the deployment's lifetime.
type latencyRing struct {
	mu   sync.Mutex
	buf  []float64
	n    int
	head int
}

// minHedgeSamples is how many latencies must be observed before the
// adaptive percentile is trusted.
const minHedgeSamples = 16

func (l *latencyRing) init(size int) { l.buf = make([]float64, size) }

func (l *latencyRing) observe(v float64) {
	l.mu.Lock()
	l.buf[l.head] = v
	l.head = (l.head + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

func (l *latencyRing) percentile(p float64) (float64, bool) {
	l.mu.Lock()
	if l.n < minHedgeSamples {
		l.mu.Unlock()
		return 0, false
	}
	vals := make([]float64, l.n)
	copy(vals, l.buf[:l.n])
	l.mu.Unlock()
	sort.Float64s(vals)
	i := int(p * float64(len(vals)))
	if i >= len(vals) {
		i = len(vals) - 1
	}
	return vals[i], true
}

// ---------------------------------------------------------------------------
// Stats

// PeerStats is one peer's failure-handling state in a Stats snapshot.
type PeerStats struct {
	Addr         string `json:"addr"`
	Self         bool   `json:"self,omitempty"`
	Healthy      bool   `json:"healthy"`
	Breaker      string `json:"breaker,omitempty"`
	BreakerTrips uint64 `json:"breaker_trips,omitempty"`
	Probes       uint64 `json:"probes,omitempty"`
	ProbeFails   uint64 `json:"probe_failures,omitempty"`
	Ejections    uint64 `json:"ejections,omitempty"`
	HoldMs       int64  `json:"retry_after_hold_ms,omitempty"`
}

// Stats is a point-in-time snapshot of the routing layer, served inside
// the /statsz cluster block.
type Stats struct {
	Self         string      `json:"self"`
	Replicas     int         `json:"replicas"`
	HedgeDelayMs float64     `json:"hedge_delay_ms"`
	Forwarded    uint64      `json:"forwarded"`
	ForwardFails uint64      `json:"forward_failures"`
	Hedges       uint64      `json:"hedges"`
	HedgeWins    uint64      `json:"hedge_wins"`
	Peers        []PeerStats `json:"peers"`
}

// Stats returns the current snapshot.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Self:         c.cfg.Self,
		Replicas:     c.cfg.Replicas,
		HedgeDelayMs: float64(c.hedgeDelay()) / float64(time.Millisecond),
		Forwarded:    c.m.forwarded.Value(),
		ForwardFails: c.m.forwardFails.Value(),
		Hedges:       c.m.hedges.Value(),
		HedgeWins:    c.m.hedgeWins.Value(),
	}
	now := time.Now()
	for _, p := range c.ring.Peers() {
		ps := PeerStats{Addr: p, Self: p == c.cfg.Self, Healthy: true}
		if ps.Self {
			st.Peers = append(st.Peers, ps)
			continue
		}
		if ph, ok := c.prober.peers[p]; ok {
			ps.Healthy = ph.healthy.Load()
			ps.Probes = ph.probes.Load()
			ps.ProbeFails = ph.failures.Load()
			ps.Ejections = ph.ejections.Load()
		}
		if b := c.breakers[p]; b != nil {
			ps.Breaker = b.State().String()
			ps.BreakerTrips = b.Trips()
		}
		if until := c.heldUntil(p); until.After(now) {
			ps.HoldMs = int64(until.Sub(now) / time.Millisecond)
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}
