package registry

// CanaryInfo is the observable state of an in-flight canary rollout.
type CanaryInfo struct {
	Candidate      int     `json:"candidate"`
	Fraction       float64 `json:"fraction"`
	Requests       uint64  `json:"requests"`
	CanaryRequests uint64  `json:"canary_requests"`
	Observed       int     `json:"observed"`
	ActiveMedAPE   float64 `json:"active_medape"`
	CandMedAPE     float64 `json:"candidate_medape"`
	ActiveCoverage float64 `json:"active_coverage"`
	CandCoverage   float64 `json:"candidate_coverage"`
	WinStreak      int     `json:"win_streak"`
}

// LineageInfo is the observable state of one lineage, the payload of the
// /v1/models admin endpoint and `crest models list`.
type LineageInfo struct {
	Name      string      `json:"name"`
	Active    int         `json:"active"`
	LKG       int         `json:"lkg,omitempty"`
	Bad       []int       `json:"bad,omitempty"`
	Canary    *CanaryInfo `json:"canary,omitempty"`
	Decisions []Decision  `json:"decisions,omitempty"`
}

// Info returns the observable state of the named lineage.
func (r *Registry) Info(name string) (LineageInfo, error) {
	ln, err := r.lineage(name)
	if err != nil {
		return LineageInfo{}, err
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return infoLocked(ln), nil
}

// InfoAll returns the observable state of every lineage, sorted by name.
func (r *Registry) InfoAll() []LineageInfo {
	out := make([]LineageInfo, 0)
	for _, name := range r.Lineages() {
		if info, err := r.Info(name); err == nil {
			out = append(out, info)
		}
	}
	return out
}

func infoLocked(ln *lineage) LineageInfo {
	info := LineageInfo{
		Name:      ln.name,
		Active:    ln.st.Active,
		LKG:       ln.st.LKG,
		Bad:       append([]int(nil), ln.st.Bad...),
		Decisions: append([]Decision(nil), ln.st.Decisions...),
	}
	if c := ln.st.Canary; c != nil {
		ci := &CanaryInfo{
			Candidate:      c.Candidate,
			Fraction:       c.Fraction,
			Requests:       c.Requests,
			CanaryRequests: c.CanaryRequests,
			Observed:       c.Observed,
			WinStreak:      c.WinStreak,
		}
		if len(c.ActiveAPE) > 0 {
			ci.ActiveMedAPE = median(c.ActiveAPE)
		}
		if len(c.CandAPE) > 0 {
			ci.CandMedAPE = median(c.CandAPE)
		}
		if c.WindowObs > 0 {
			ci.ActiveCoverage = float64(c.ActiveHits) / float64(c.WindowObs)
			ci.CandCoverage = float64(c.CandHits) / float64(c.WindowObs)
		}
		info.Canary = ci
	}
	return info
}
