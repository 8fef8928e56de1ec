package experiment

import (
	"testing"
	"time"
)

// TestBackoffCapAndGrowth checks the envelope: doubling from Base, never
// exceeding Cap, immediate retries when Base is zero, and no overflow at
// absurd attempt counts.
func TestBackoffCapAndGrowth(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond}
	wants := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range wants {
		if got := b.Delay(i); got != w*time.Millisecond {
			t.Fatalf("attempt %d: got %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if got := b.Delay(500); got != 80*time.Millisecond {
		t.Fatalf("attempt 500: got %v, want cap", got)
	}
	if got := (Backoff{}).Delay(3); got != 0 {
		t.Fatalf("zero policy: got %v, want 0", got)
	}
	// Uncapped overflow guard: a huge attempt count must not go negative.
	u := Backoff{Base: time.Second}
	if got := u.Delay(400); got <= 0 {
		t.Fatalf("uncapped huge attempt: got %v, want positive", got)
	}
}
