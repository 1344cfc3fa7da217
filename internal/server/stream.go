package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"github.com/crestlab/crest/internal/conformal"
	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/predictors"
)

// stream.go is the out-of-core ingest boundary: POST /v1/estimate with
// Content-Type application/x-crest-stream accepts a CRBS block stream
// (see grid.ChunkReader) instead of a JSON body, featurizes each slice
// with O(slice) working memory as chunks arrive, and returns one
// conformal estimate per slice. The error bound travels in the ?eps=
// query parameter since the binary body has no field for it.
//
// POST /v1/feedback closes the loop for online conformal recalibration:
// a client that later learns the true compression ratio of an estimated
// buffer posts it back, and the estimator's rolling-coverage tracker
// (conformal.OnlineModel) recalibrates the interval radius when empirical
// coverage drifts out of its band.

// StreamContentType selects the binary chunked-ingest path on
// POST /v1/estimate.
const StreamContentType = "application/x-crest-stream"

// streamMetrics are the streaming/recalibration series, resolved lazily
// so non-streaming deployments pay nothing.
type streamMetrics struct {
	slices       *obs.Counter
	streamErrs   *obs.Counter
	observations *obs.Counter
	recals       *obs.Counter
	coverageBp   *obs.Gauge // rolling coverage in basis points (1e-4)
	radiusMicro  *obs.Gauge // interval radius in micro log-CR units
	driftEvents  *obs.Counter
}

func newStreamMetrics(r *obs.Registry) streamMetrics {
	return streamMetrics{
		slices:       r.Counter("stream_slices_total"),
		streamErrs:   r.Counter("stream_errors_total"),
		observations: r.Counter("conformal_observations_total"),
		recals:       r.Counter("conformal_recalibrations_total"),
		coverageBp:   r.Gauge("conformal_coverage_bp"),
		radiusMicro:  r.Gauge("conformal_radius_micro"),
		driftEvents:  r.Counter("conformal_drift_events_total"),
	}
}

// SliceEstimate is one slice's estimate in a streaming response.
type SliceEstimate struct {
	Step int     `json:"step"`
	CR   float64 `json:"cr"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

// StreamResponse carries per-slice estimates in arrival order.
type StreamResponse struct {
	Slices []SliceEstimate `json:"slices"`
}

// streamBodyError types a streaming-body failure: the MaxBytesReader cap
// maps to ErrBodyTooLarge (a too-long stream hits the cap mid-chunk, so
// the decoder reports a corrupt stream wrapping the cap error); anything
// already typed under the taxonomy passes through untouched.
func streamBodyError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Errorf("%w: stream exceeds %d bytes", crerr.ErrBodyTooLarge, mbe.Limit)
	}
	return err
}

// parseEps reads the ?eps= query parameter: a single error bound applied
// to every slice of the stream. It must be finite and positive; the
// negated comparison also rejects the "NaN" ParseFloat accepts.
func parseEps(r *http.Request) (float64, error) {
	raw := r.URL.Query().Get("eps")
	if raw == "" {
		return 0, fmt.Errorf("%w: streaming ingest requires ?eps=", crerr.ErrInvalidBuffer)
	}
	eps, err := strconv.ParseFloat(raw, 64)
	if err != nil || !(eps > 0) || math.IsInf(eps, 0) {
		return 0, fmt.Errorf("%w: eps %q", crerr.ErrInvalidBuffer, raw)
	}
	return eps, nil
}

// isStreamRequest reports whether the request selected the binary path.
func isStreamRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == StreamContentType
}

// handleEstimateStream ingests a CRBS stream and estimates each slice as
// it completes. The body is capped at MaxBodyBytes like the JSON path;
// within the cap, working memory is O(one slice), not O(stream): each
// slice's rows scatter straight into the pooled featurizer scratch and
// the estimate is emitted before the next slice is read.
func (s *Server) handleEstimateStream(w http.ResponseWriter, r *http.Request) {
	s.withAdmission(w, r, func(ctx context.Context) {
		eps, err := parseEps(r)
		if err != nil {
			s.failRequest(w, err)
			return
		}
		engine, err := s.engineFor(w, r)
		if err != nil {
			s.failRequest(w, err)
			return
		}
		est := engine.Estimator()
		cr, err := grid.NewChunkReader(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			s.sm.streamErrs.Inc()
			s.failRequest(w, streamBodyError(err))
			return
		}
		var out StreamResponse
		err = predictors.ForEachSlice(cr, []float64{eps}, est.PredictorConfig(), func(sf predictors.SliceFeatures) error {
			if cerr := ctx.Err(); cerr != nil {
				return crerr.Canceled(cerr)
			}
			e, eerr := est.Estimate(sf.FeaturesAt(0).Vector())
			if eerr != nil {
				return fmt.Errorf("slice %d: %w", sf.Step, eerr)
			}
			s.sm.slices.Inc()
			out.Slices = append(out.Slices, SliceEstimate{Step: sf.Step, CR: e.CR, Lo: e.Lo, Hi: e.Hi})
			return nil
		})
		if err != nil {
			s.sm.streamErrs.Inc()
			s.failRequest(w, streamBodyError(err))
			return
		}
		if len(out.Slices) == 0 {
			s.failRequest(w, fmt.Errorf("%w: stream carried no slices", crerr.ErrInvalidBuffer))
			return
		}
		s.respond(w, out)
	})
}

// FeedbackRequest posts the ground-truth compression ratio for a feature
// vector a client previously estimated.
type FeedbackRequest struct {
	Features []float64 `json:"features"`
	ActualCR float64   `json:"actual_cr"`
}

// FeedbackResponse reports the tracker state after absorbing the
// observation.
type FeedbackResponse struct {
	Coverage       float64 `json:"coverage"`
	Target         float64 `json:"target"`
	Radius         float64 `json:"radius"`
	Recalibrated   bool    `json:"recalibrated"`
	Recalibrations int     `json:"recalibrations"`
	Windowed       int     `json:"windowed"`
}

// handleFeedback feeds one ground-truth observation to the model that
// serves its lineage. A registry scores it against the lineage's active
// model, recalibrating when the model tracks coverage; a single model
// without online recalibration answers 409.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	s.withAdmission(w, r, func(ctx context.Context) {
		var req FeedbackRequest
		if _, err := s.decodeBody(w, r, &req); err != nil {
			s.failRequest(w, err)
			return
		}
		var resp FeedbackResponse
		var st *conformal.OnlineStats
		if reg := s.cfg.Registry; reg != nil {
			res, err := reg.ObserveFeedback(lineageOf(r), req.Features, req.ActualCR)
			if err != nil {
				s.failRequest(w, err)
				return
			}
			st, resp.Recalibrated = res.Online, res.Recalibrated
		} else {
			est := s.engine.Estimator()
			ost, recal, err := est.ObserveActual(req.Features, req.ActualCR)
			if err != nil {
				if _, ok := est.OnlineStats(); !ok {
					s.count(http.StatusConflict)
					s.writeError(w, http.StatusConflict, "recalibration_disabled", err)
					return
				}
				s.failRequest(w, err)
				return
			}
			st, resp.Recalibrated = &ost, recal
		}
		s.sm.observations.Inc()
		if st != nil {
			resp.Coverage, resp.Target, resp.Radius = st.Coverage, st.Target, st.Radius
			resp.Recalibrations, resp.Windowed = st.Recalibrations, st.Windowed
			if resp.Recalibrated {
				s.sm.recals.Inc()
				s.sm.driftEvents.Inc()
				s.cfg.Logger.Info("conformal recalibration",
					"coverage", st.Coverage, "target", st.Target, "radius", st.Radius,
					"recalibrations", st.Recalibrations)
			}
			if !math.IsNaN(st.Coverage) {
				s.sm.coverageBp.Set(int64(st.Coverage * 1e4))
			}
			s.sm.radiusMicro.Set(int64(st.Radius * 1e6))
		}
		s.respond(w, resp)
	})
}

// OnlineSnapshot is the /statsz conformal block when online
// recalibration is enabled. Coverage is null until the first
// observation: the tracker reports NaN then, which encoding/json cannot
// represent — serializing it raw would abort the whole /statsz payload
// mid-response.
type OnlineSnapshot struct {
	Coverage       *float64 `json:"coverage"`
	Target         float64  `json:"target"`
	Band           float64  `json:"band"`
	Radius         float64  `json:"radius"`
	Observed       int      `json:"observed"`
	Windowed       int      `json:"windowed"`
	Recalibrations int      `json:"recalibrations"`
	InBand         bool     `json:"in_band"`
}

func onlineSnapshot(st conformal.OnlineStats) *OnlineSnapshot {
	snap := &OnlineSnapshot{
		Target:         st.Target,
		Band:           st.Band,
		Radius:         st.Radius,
		Observed:       st.Observed,
		Windowed:       st.Windowed,
		Recalibrations: st.Recalibrations,
		InBand:         st.InBand(),
	}
	if !math.IsNaN(st.Coverage) {
		cov := st.Coverage
		snap.Coverage = &cov
	}
	return snap
}
