package main

import (
	"testing"
	"time"
)

func sp(start, end int) span {
	return span{Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

// TestSelfTimeOverlappingChildren covers bodies that run at once: their
// summed duration exceeds the parent's, so subtracting the sum would
// give a negative self time; the union gives the uncovered part.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := sp(0, 100)
	children := []span{sp(10, 60), sp(20, 70), sp(30, 50), sp(80, 90), sp(85, 95)}
	var sum time.Duration
	for _, c := range children {
		sum += c.dur()
	}
	if naive := parent.dur() - sum; naive >= 0 {
		t.Fatalf("test needs overlapping children whose sum exceeds the parent; naive self time %v", naive)
	}
	// Covered: [10,70] and [80,95] = 75 ms.
	if got, want := selfTime(parent, children), 25*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
}

func TestSelfTimeClipsAndOrders(t *testing.T) {
	parent := sp(100, 200)
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100 * time.Millisecond},
		{"unsorted disjoint", []span{sp(150, 160), sp(110, 120)}, 80 * time.Millisecond},
		{"outside clipped", []span{sp(50, 120), sp(190, 250), sp(300, 400)}, 70 * time.Millisecond},
		{"nested", []span{sp(110, 190), sp(120, 130)}, 20 * time.Millisecond},
		{"touching", []span{sp(100, 150), sp(150, 200)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}
