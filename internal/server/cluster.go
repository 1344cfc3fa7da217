package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/crestlab/crest/internal/cluster"
	"github.com/crestlab/crest/internal/obs"
)

// This file is the server half of the replication layer: key extraction,
// ownership checks, forwarding of non-owned requests through the
// cluster's failure-aware client, and the degradation policy — when every
// remote owner is ejected, opened or held, the request is served from the
// local model and the response marked degraded rather than failed. The
// cluster package never sees wire types; this file never makes routing or
// failure-handling decisions beyond "forward failed, degrade".

// clustered reports whether this server participates in a fleet.
func (s *Server) clustered() bool { return s.cfg.Cluster != nil }

// forwardDepth reads the hop count of an incoming request (0 when the
// request came straight from a client).
func forwardDepth(r *http.Request) int {
	d, err := strconv.Atoi(r.Header.Get(cluster.ForwardDepthHeader))
	if err != nil || d < 0 {
		return 0
	}
	return d
}

// routingKey derives the consistent-hash key of one estimation ask. Named
// buffers route by identity (dataset/field/step) so repeated estimates of
// the same field land on the same replica set and its feature cache;
// anonymous buffers route by a cheap content fingerprint (shape and a
// bounded sample of the data) so identical payloads still converge on one
// owner without hashing arbitrarily large buffers. Neither key includes
// the error bound: every probe of an ε search lands on the owner whose
// cache already holds the buffer's dataset features.
func routingKey(req *EstimateRequest) string {
	if req.Dataset != "" || req.Field != "" {
		return fmt.Sprintf("%s/%s/%d", req.Dataset, req.Field, req.Step)
	}
	h := fnv.New64a()
	var scratch [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	put(uint64(req.Rows))
	put(uint64(req.Cols))
	put(uint64(len(req.Data)))
	const sample = 64
	stride := 1
	if len(req.Data) > sample {
		stride = len(req.Data) / sample
	}
	for i := 0; i < len(req.Data); i += stride {
		put(math.Float64bits(req.Data[i]))
	}
	return fmt.Sprintf("anon/%x", h.Sum64())
}

// routeEstimate decides where one decoded estimate runs. It returns
// handled=true when a remote owner already answered (the response has
// been relayed); otherwise the caller serves locally with the returned
// degraded flag — true when forwarding was attempted and the whole owner
// set was unusable.
func (s *Server) routeEstimate(ctx context.Context, w http.ResponseWriter, r *http.Request,
	req *EstimateRequest, raw []byte) (handled, degraded bool) {
	cl := s.cfg.Cluster
	key := routingKey(req)
	if forwardDepth(r) >= cl.MaxForwardDepth() || cl.OwnsLocally(key) {
		return false, false
	}
	res, err := cl.Do(ctx, cluster.DoRequest{
		Peers: cl.RemoteOwners(key),
		Path:  "/v1/estimate",
		RID:   obs.RequestID(ctx),
		Depth: forwardDepth(r),
		Body:  raw,
		Hedge: true,
	})
	if err != nil {
		s.cm.degraded.Add(1)
		s.cm.degradedM.Inc()
		s.cfg.Logger.Warn("all owners unusable; serving degraded locally",
			"rid", obs.RequestID(ctx), "key", key, "err", err)
		return false, true
	}
	s.relay(w, res)
	return true, false
}

// relay copies a forwarded peer response to the client verbatim, tagging
// which peer served it.
func (s *Server) relay(w http.ResponseWriter, res cluster.Result) {
	ct := res.ContentType
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set(cluster.ServedByHeader, res.Peer)
	if res.RetryAfter != "" {
		w.Header().Set("Retry-After", res.RetryAfter)
	}
	w.WriteHeader(res.Status)
	if _, err := w.Write(res.Body); err != nil {
		s.cfg.Logger.Warn("relay response", "peer", res.Peer, "err", err)
	}
	// The owning peer classified the answer; mirror its class into this
	// node's counters so fleet-wide rates add up.
	s.count(res.Status)
}

// batchGroup is one owner's share of a clustered batch.
type batchGroup struct {
	peer    string   // "" = local
	owners  []string // full remote owner preference order
	indices []int    // positions in the original request list
}

// groupBatch splits a batch by primary owner: requests this node
// replicates stay local (the cheapest correct choice — no forwarding,
// cache locality for this node's share of the keyspace); the rest group
// by their first remote owner.
func (s *Server) groupBatch(wire *BatchWireRequest) (local []int, remote []batchGroup) {
	cl := s.cfg.Cluster
	byPeer := make(map[string]*batchGroup)
	for i := range wire.Requests {
		key := routingKey(&wire.Requests[i])
		if cl.OwnsLocally(key) {
			local = append(local, i)
			continue
		}
		owners := cl.RemoteOwners(key)
		if len(owners) == 0 {
			local = append(local, i)
			continue
		}
		g, ok := byPeer[owners[0]]
		if !ok {
			g = &batchGroup{peer: owners[0], owners: owners}
			byPeer[owners[0]] = g
		}
		g.indices = append(g.indices, i)
	}
	for _, g := range byPeer {
		remote = append(remote, *g)
	}
	return local, remote
}

// forwardBatchGroup sends one owner group as a sub-batch and scatters the
// results into their slots. Sub-batches are not hedged: they are already
// spread across owners, and duplicating a large batch against a second
// replica doubles fleet work for a small tail win. It returns the indices
// to serve locally (degraded) when the group's owners were all unusable.
func (s *Server) forwardBatchGroup(ctx context.Context, g batchGroup, wire *BatchWireRequest,
	results []BatchItem, mu *sync.Mutex, gi int) []int {
	sub := BatchWireRequest{Requests: make([]EstimateRequest, len(g.indices))}
	for j, i := range g.indices {
		sub.Requests[j] = wire.Requests[i]
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return g.indices
	}
	rid := obs.RequestID(ctx)
	if rid != "" {
		// The group index names each sub-batch of one request in the
		// peer's logs.
		rid = fmt.Sprintf("%s#g%d", rid, gi)
	}
	res, err := s.cfg.Cluster.Do(ctx, cluster.DoRequest{
		Peers: g.owners,
		Path:  "/v1/batch",
		RID:   rid,
		Body:  body,
	})
	if err != nil {
		return g.indices
	}
	if res.Status != http.StatusOK {
		// The peer rejected the sub-batch outright (it would have been a
		// 4xx/5xx for us too, but per-item local serving still produces
		// per-item classifications, which is strictly more useful).
		return g.indices
	}
	var subResp BatchWireResponse
	if err := json.Unmarshal(res.Body, &subResp); err != nil || len(subResp.Results) != len(g.indices) {
		return g.indices
	}
	mu.Lock()
	for j, i := range g.indices {
		results[i] = subResp.Results[j]
	}
	mu.Unlock()
	return nil
}

// runBatchClustered executes a decoded batch across the fleet into
// results: the local share runs on the engine, each remote group is
// forwarded to its owner concurrently, and any group whose owners are all
// unusable falls back to the local engine with its results marked
// degraded.
func (s *Server) runBatchClustered(ctx context.Context, r *http.Request, wire *BatchWireRequest, results []BatchItem) {
	local, remote := s.groupBatch(wire)
	if forwardDepth(r) >= s.cfg.Cluster.MaxForwardDepth() || len(remote) == 0 {
		// Hop budget spent (or everything is ours): the whole batch runs
		// here, never degraded — this node is an owner or the guard fired.
		s.runBatchLocal(ctx, wire, allIndices(len(wire.Requests)), false, results)
		return
	}

	var mu sync.Mutex
	var degradedIdx []int
	var wg sync.WaitGroup
	for gi, g := range remote {
		wg.Add(1)
		go func(gi int, g batchGroup) {
			defer wg.Done()
			if fallback := s.forwardBatchGroup(ctx, g, wire, results, &mu, gi); len(fallback) > 0 {
				mu.Lock()
				degradedIdx = append(degradedIdx, fallback...)
				mu.Unlock()
			}
		}(gi, g)
	}
	// The local share overlaps with the forwards.
	s.runBatchLocal(ctx, wire, local, false, results)
	wg.Wait()

	if len(degradedIdx) > 0 {
		s.cm.degraded.Add(uint64(len(degradedIdx)))
		for range degradedIdx {
			s.cm.degradedM.Inc()
		}
		s.cfg.Logger.Warn("batch requests served degraded locally",
			"rid", obs.RequestID(ctx), "count", len(degradedIdx))
		s.runBatchLocal(ctx, wire, degradedIdx, true, results)
	}
}

func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// runBatchLocal runs the selected indices on the local engine and fills
// their slots, marking results degraded when requested. Unlike a
// single-node batch, a whole-call failure (cancellation) does not fail
// the request: it becomes the error of every valid item in the share.
func (s *Server) runBatchLocal(ctx context.Context, wire *BatchWireRequest, idx []int,
	degraded bool, results []BatchItem) {
	ests, errs, err := estimate(ctx, s.engine, wire.Requests, idx)
	if err != nil {
		for j := range errs {
			if errs[j] == nil {
				errs[j] = err
			}
		}
	}
	s.fillBatch(results, idx, ests, errs, degraded)
}

// clusterServerMetrics are the server-side cluster counters (the routing
// client's own metrics live in internal/cluster).
type clusterServerMetrics struct {
	degradedM *obs.Counter
	degraded  atomic.Uint64
}

func newClusterServerMetrics(r *obs.Registry) clusterServerMetrics {
	return clusterServerMetrics{degradedM: r.Counter("cluster_degraded_total")}
}

// ClusterBlock is the /statsz cluster section: the routing layer's
// snapshot plus this node's degraded-service count.
type ClusterBlock struct {
	cluster.Stats
	// Degraded counts requests answered from the local model because
	// every remote owner was unusable.
	Degraded uint64 `json:"degraded"`
}

func (s *Server) clusterBlock() *ClusterBlock {
	if !s.clustered() {
		return nil
	}
	return &ClusterBlock{Stats: s.cfg.Cluster.Stats(), Degraded: s.cm.degraded.Load()}
}
