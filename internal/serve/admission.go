package serve

import (
	"math"
	"sync"
	"time"
)

// limiter is a per-tenant token bucket: each tenant accrues rate
// tokens per second up to burst, and every admission-controlled
// request spends one. Hand-rolled (the repo takes no dependencies) and
// clock-injectable so the refill math is testable without sleeps.
// rate <= 0 disables limiting entirely.
type limiter struct {
	rate  float64 // tokens per second
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newLimiter(rate float64, burst int) *limiter {
	if burst < 1 {
		burst = 1
	}
	return &limiter{
		rate:    rate,
		burst:   float64(burst),
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// allow spends one token from the tenant's bucket. When the bucket is
// empty it reports false plus how long until one token accrues — the
// Retry-After the 429 carries. Buckets start full, so a tenant's first
// burst requests always pass.
func (l *limiter) allow(tenant string) (ok bool, retryAfter time.Duration) {
	if l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, found := l.buckets[tenant]
	if !found {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := (1 - b.tokens) / l.rate
	return false, time.Duration(wait * float64(time.Second))
}

// Throttle reasons, the `reason` label of htdp_tenant_throttled_total.
const (
	throttleRate  = "rate_limited"   // token bucket empty → 429
	throttleQuota = "quota_exceeded" // per-tenant queue quota reached → 429
)
