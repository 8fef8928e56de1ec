package experiment

import "time"

// Backoff is the runner's delay policy between transient-failure retries:
// the delay doubles from Base per attempt up to Cap, so the same attempt
// always waits the same time.
type Backoff struct {
	// Base is the delay before the first retry (attempt 0); 0 disables
	// delays entirely (retry immediately).
	Base time.Duration
	// Cap bounds the exponential growth; 0 means uncapped.
	Cap time.Duration
}

// DefaultBackoff is the policy cmd/experiments uses: 100 ms doubling to a
// 5 s ceiling.
func DefaultBackoff() Backoff {
	return Backoff{Base: 100 * time.Millisecond, Cap: 5 * time.Second}
}

// Delay returns the wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	if attempt < 0 {
		attempt = 0
	}
	d := b.Base
	// Shift with explicit overflow/cap guards: a caller's attempt count is
	// not bounded here, and an uncapped shift would wrap negative.
	for i := 0; i < attempt; i++ {
		d <<= 1
		if d <= 0 || (b.Cap > 0 && d >= b.Cap) {
			d = b.Cap
			if d <= 0 {
				d = time.Duration(1) << 62
			}
			break
		}
	}
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	return d
}
