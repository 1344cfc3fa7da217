package server

import (
	"fmt"
	"net/http"
	"strconv"

	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/registry"
)

// registry.go is the multi-tenant serving surface: tenant extraction and
// per-tenant admission quotas, request routing to model lineages, and the
// /v1/models admin endpoints.

// TenantHeader names the requesting tenant; requests without it are
// billed to the default quota bucket.
const TenantHeader = "X-Crest-Tenant"

// LineageHeader selects the model lineage a request is served by;
// requests without it route to the registry's default lineage.
const LineageHeader = "X-Crest-Lineage"

// ModelVersionHeader reports which snapshot sequence served the request.
const ModelVersionHeader = "X-Crest-Model-Version"

// registryFallbackEngine picks the engine that stands in for Config.Engine
// in registry mode: the default lineage's active engine, else any
// lineage's (sorted order). Errors when the registry hosts nothing — an
// empty registry has nothing to serve.
func registryFallbackEngine(reg *registry.Registry) (*batch.Engine, error) {
	if eng, err := reg.ActiveEngine(""); err == nil {
		return eng, nil
	}
	for _, name := range reg.Lineages() {
		if eng, err := reg.ActiveEngine(name); err == nil {
			return eng, nil
		}
	}
	return nil, fmt.Errorf("server: registry hosts no lineages")
}

// tenantOf extracts the requesting tenant.
func tenantOf(r *http.Request) string { return r.Header.Get(TenantHeader) }

// lineageOf extracts the requested lineage ("" = default).
func lineageOf(r *http.Request) string { return r.Header.Get(LineageHeader) }

// checkQuota runs the request through its tenant's admission quota. On
// denial it writes the 429 with the tenant's own Retry-After and returns
// false. Quota exhaustion is deliberately checked before the shared
// inflight/queue admission: a tenant over budget must not occupy queue
// slots other tenants need.
func (s *Server) checkQuota(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.Registry == nil {
		return true
	}
	tenant := tenantOf(r)
	wait, ok := s.cfg.Registry.AllowTenant(tenant)
	if ok {
		return true
	}
	s.quotaRejected.Add(1)
	secs := retryAfterSecs(wait)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	if tenant == "" {
		tenant = "(default)"
	}
	s.writeError(w, http.StatusTooManyRequests, "quota_exceeded",
		fmt.Errorf("%w: tenant %s, retry after %ds", crerr.ErrQuotaExceeded, tenant, secs))
	return false
}

// engineFor resolves the engine one request runs on. Outside registry
// mode that is the fixed engine; in registry mode the request routes to
// its lineage's active model, and the response is stamped with the
// serving version.
func (s *Server) engineFor(w http.ResponseWriter, r *http.Request) (*batch.Engine, error) {
	if s.cfg.Registry == nil {
		return s.engine, nil
	}
	rt, err := s.cfg.Registry.Route(lineageOf(r))
	if err != nil {
		return nil, err
	}
	w.Header().Set(ModelVersionHeader, strconv.Itoa(rt.Seq))
	return rt.Engine, nil
}

// currentEngine is the engine introspection endpoints report on: the
// registry's default active model when in registry mode, else the fixed
// engine.
func (s *Server) currentEngine() *batch.Engine {
	if s.cfg.Registry != nil {
		if eng, err := s.cfg.Registry.ActiveEngine(""); err == nil {
			return eng
		}
	}
	return s.engine
}

// ---------------------------------------------------------------------------
// /v1/models admin endpoints (registry mode only)

// PromoteRequest is the POST /v1/models/{lineage}/promote body.
type PromoteRequest struct {
	Seq int `json:"seq"`
}

// LifecycleResponse acknowledges a promote/rollback with the lineage's
// resulting state.
type LifecycleResponse struct {
	Status  string               `json:"status"`
	Lineage registry.LineageInfo `json:"lineage"`
}

func (s *Server) handleModelsList(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string][]registry.LineageInfo{
		"lineages": s.cfg.Registry.InfoAll(),
	})
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.cfg.Registry.Info(r.PathValue("lineage"))
	if err != nil {
		s.failRequest(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleModelPromote(w http.ResponseWriter, r *http.Request) {
	var req PromoteRequest
	if _, err := s.decodeBody(w, r, &req); err != nil {
		s.failRequest(w, err)
		return
	}
	name := r.PathValue("lineage")
	if err := s.cfg.Registry.Promote(name, req.Seq); err != nil {
		s.failRequest(w, err)
		return
	}
	info, _ := s.cfg.Registry.Info(name)
	s.writeJSON(w, http.StatusOK, LifecycleResponse{Status: "promoted", Lineage: info})
}

func (s *Server) handleModelRollback(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("lineage")
	if err := s.cfg.Registry.Rollback(name); err != nil {
		s.failRequest(w, err)
		return
	}
	info, _ := s.cfg.Registry.Info(name)
	s.writeJSON(w, http.StatusOK, LifecycleResponse{Status: "rolled_back", Lineage: info})
}

// registryBlock is the /statsz registry section.
func (s *Server) registryBlock() []registry.LineageInfo {
	if s.cfg.Registry == nil {
		return nil
	}
	return s.cfg.Registry.InfoAll()
}
