package registry

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// TenantQuota is one tenant's admission budget: a token bucket refilled
// at Rate tokens/second with capacity Burst. A zero Rate means unlimited.
type TenantQuota struct {
	Rate  float64
	Burst float64
}

func (q TenantQuota) withDefaults() TenantQuota {
	if q.Rate > 0 && q.Burst <= 0 {
		q.Burst = math.Max(1, q.Rate)
	}
	return q
}

// validate refuses a quota under which a tenant could never be admitted:
// take spends whole tokens, so a limited bucket needs a burst of at least
// one, and a NaN or infinite rate or burst makes its token count NaN.
func (q TenantQuota) validate() error {
	q = q.withDefaults()
	switch {
	case math.IsNaN(q.Rate) || math.IsInf(q.Rate, 0) || math.IsNaN(q.Burst) || math.IsInf(q.Burst, 0):
		return fmt.Errorf("rate %g and burst %g must be finite", q.Rate, q.Burst)
	case q.Rate > 0 && q.Burst < 1:
		return fmt.Errorf("burst %g is below one request, so nothing would be admitted", q.Burst)
	}
	return nil
}

// QuotaConfig configures per-tenant admission quotas. Quota exhaustion is
// the tenant's backpressure (429 + Retry-After), layered in front of the
// server's inflight/queue admission control (503): a tenant over budget
// is rejected before it can occupy queue slots other tenants need.
type QuotaConfig struct {
	// Default applies to tenants without an explicit entry. The zero
	// value (Rate 0) admits everything — quotas are opt-in.
	Default TenantQuota

	// Tenants maps tenant name to its quota, overriding Default.
	Tenants map[string]TenantQuota

	// MaxTenants bounds the table of buckets of tenants on the Default
	// quota (default 1024). Tenants named in Tenants get their buckets
	// at construction, outside the bound, so a flood of fresh tenant
	// names (the tenant header is unauthenticated) can neither grow
	// memory nor touch a configured tenant's quota. When the table is
	// full, a new name evicts every bucket that has refilled to its
	// burst; if none has, the name shares one overflow bucket sized
	// like Default. An unlimited Default stores no buckets.
	MaxTenants int
}

// validate checks the Default quota and every tenant's, naming the
// tenant whose quota is refused.
func (c QuotaConfig) validate() error {
	if err := c.Default.validate(); err != nil {
		return fmt.Errorf("registry: default quota: %w", err)
	}
	for name, q := range c.Tenants {
		if err := q.validate(); err != nil {
			return fmt.Errorf("registry: quota of tenant %q: %w", name, err)
		}
	}
	return nil
}

// defaultMaxTenants bounds the per-tenant bucket table.
const defaultMaxTenants = 1024

// bucket is one token bucket.
type bucket struct {
	quota  TenantQuota
	tokens float64
	last   time.Time
}

// take refills the bucket to now and tries to spend one token. On denial
// it returns the wait until a token accrues.
func (b *bucket) take(now time.Time) (time.Duration, bool) {
	if b.quota.Rate <= 0 {
		return 0, true
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.quota.Rate
	} else {
		b.tokens = b.quota.Burst
	}
	if b.tokens > b.quota.Burst {
		b.tokens = b.quota.Burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	wait := time.Duration((1 - b.tokens) / b.quota.Rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	return wait, false
}

// full reports whether take at now would refill the bucket to its
// burst, so the bucket admits from now on exactly as a fresh one would.
func (b *bucket) full(now time.Time) bool {
	return b.tokens+now.Sub(b.last).Seconds()*b.quota.Rate >= b.quota.Burst
}

// fullAt is, up to rounding, the first time full holds; a take only
// moves it later. The wait is capped at a year, which keeps the
// Duration in range at any rate.
func (b *bucket) fullAt() time.Time {
	wait := math.Min((b.quota.Burst-b.tokens)/b.quota.Rate, 365*24*3600)
	return b.last.Add(time.Duration(wait * float64(time.Second)))
}

// Quotas is the tenant admission table.
type Quotas struct {
	mu  sync.Mutex
	cfg QuotaConfig
	now func() time.Time
	// configured holds one bucket per tenant of cfg.Tenants, seated at
	// construction and never evicted; the map is never written after.
	configured map[string]*bucket
	// buckets holds the tenants on the Default quota, at most
	// cfg.MaxTenants of them.
	buckets  map[string]*bucket
	overflow bucket
	// noneFullBefore is set by a sweep of a full table that evicted
	// nothing: no bucket can refill before it, and none joins until a
	// sweep evicts, so until then new names skip the sweep.
	noneFullBefore time.Time
}

func newQuotas(cfg QuotaConfig, now func() time.Time) *Quotas {
	cfg.Default = cfg.Default.withDefaults()
	configured := make(map[string]*bucket, len(cfg.Tenants))
	for name, q := range cfg.Tenants {
		configured[name] = &bucket{quota: q.withDefaults()}
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = defaultMaxTenants
	}
	return &Quotas{
		cfg:        cfg,
		now:        now,
		configured: configured,
		buckets:    make(map[string]*bucket),
		overflow:   bucket{quota: cfg.Default},
	}
}

// Allow spends one admission token of the tenant's bucket. It returns
// ok=true when admitted, else the Retry-After duration.
func (q *Quotas) Allow(tenant string) (time.Duration, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	if b := q.configured[tenant]; b != nil {
		return b.take(now)
	}
	if q.cfg.Default.Rate <= 0 {
		return 0, true
	}
	b := q.buckets[tenant]
	if b == nil {
		if len(q.buckets) >= q.cfg.MaxTenants && !now.Before(q.noneFullBefore) {
			q.evictFull(now)
		}
		if len(q.buckets) >= q.cfg.MaxTenants {
			return q.overflow.take(now)
		}
		b = &bucket{quota: q.cfg.Default}
		q.buckets[tenant] = b
	}
	return b.take(now)
}

// evictFull drops every Default-quota bucket that has refilled to its
// burst. A full bucket admits exactly as a fresh one would, so dropping
// it changes no admission decision. When none has refilled, it records
// when the first one can.
func (q *Quotas) evictFull(now time.Time) {
	var next time.Time
	for name, b := range q.buckets {
		if b.full(now) {
			delete(q.buckets, name)
		} else if at := b.fullAt(); next.IsZero() || at.Before(next) {
			next = at
		}
	}
	if len(q.buckets) < q.cfg.MaxTenants {
		next = time.Time{}
	}
	q.noneFullBefore = next
}
