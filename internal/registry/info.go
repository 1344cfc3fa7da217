package registry

// LineageInfo is the observable state of one lineage, the payload of the
// /v1/models admin endpoint and `crest models list`.
type LineageInfo struct {
	Name      string     `json:"name"`
	Active    int        `json:"active"`
	LKG       int        `json:"lkg,omitempty"`
	Bad       []int      `json:"bad,omitempty"`
	Decisions []Decision `json:"decisions,omitempty"`
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
	return LineageInfo{
		Name:      ln.name,
		Active:    ln.st.Active,
		LKG:       ln.st.LKG,
		Bad:       append([]int(nil), ln.st.Bad...),
		Decisions: append([]Decision(nil), ln.st.Decisions...),
	}
}
