package main

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestScheduleDueOrder checks that each pacer emits in due-time order
// and that all pacers together send evenly spaced, each node once per
// period.
func TestScheduleDueOrder(t *testing.T) {
	const total, pacers, samples = 10, 3, 4
	period := 10 * time.Millisecond
	var all []int64
	nodes := 0
	for c := 0; c < pacers; c++ {
		s := newSchedule(1000, period, total, pacers, c, samples)
		nodes += s.nodes
		prev := int64(-1)
		for i := 0; i < s.events(); i++ {
			node, j := s.event(i)
			d := s.due(node, j)
			if d < prev {
				t.Fatalf("pacer %d event %d due %d before previous %d", c, i, d, prev)
			}
			prev = d
			if j > 0 && d-s.due(node, j-1) != int64(period) {
				t.Fatalf("pacer %d node %d not periodic", c, node)
			}
			all = append(all, d)
		}
	}
	if nodes != total {
		t.Fatalf("pacers cover %d nodes, want %d", nodes, total)
	}
	slices.Sort(all)
	gap := int64(period) / total
	for i := 1; i < len(all); i++ {
		if all[i]-all[i-1] != gap {
			t.Fatalf("sends %d and %d are %d ns apart, want %d", i-1, i, all[i]-all[i-1], gap)
		}
	}
}

// TestPaceLateness drives pace with a fake clock whose sleeps overshoot
// by 30µs, and a send that itself takes 100µs: lateness is measured
// from each event's due time, so a slow send delays the next event.
func TestPaceLateness(t *testing.T) {
	s := newSchedule(0, time.Millisecond, 2, 1, 0, 3) // events every 500µs
	var clock int64
	now := func() int64 { return clock }
	sleep := func(d time.Duration) { clock += int64(d) + 30_000 }
	var late []int64
	var order [][2]int
	err := pace(context.Background(), s, now, sleep, func(node, j int, l int64) error {
		late = append(late, l)
		order = append(order, [2]int{node, j})
		clock += 100_000
		if j == 1 && node == 0 {
			clock += 600_000 // a stall: the next event goes out late without sleeping
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}
	if !slices.Equal(order, wantOrder) {
		t.Fatalf("order %v, want %v", order, wantOrder)
	}
	// Event 0 is due at 0 (no sleep), 1 at 500µs (slept, +30µs), ...
	wantLate := []int64{0, 30_000, 30_000, 230_000, 30_000, 30_000}
	if !slices.Equal(late, wantLate) {
		t.Fatalf("lateness %v, want %v", late, wantLate)
	}
}

func TestKernelTimerSleeps(t *testing.T) {
	tm, err := newKernelTimer()
	if err != nil {
		t.Skip("no timerfd:", err)
	}
	defer tm.close()
	t0 := time.Now()
	tm.sleep(2 * time.Millisecond)
	if d := time.Since(t0); d < 2*time.Millisecond {
		t.Fatalf("slept %v, want at least 2ms", d)
	}
}
