package fleet

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 3, 200} {
		got, err := Map(workers, items, func(v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryItemAndReturnsLowestError(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		var calls atomic.Int64
		got, err := Map(workers, []int{0, 1, 2, 3, 4}, func(v int) (int, error) {
			calls.Add(1)
			if v == 1 || v == 3 {
				return 0, fmt.Errorf("item %d", v)
			}
			return v + 10, nil
		})
		if err == nil || err.Error() != "item 1" {
			t.Fatalf("workers=%d: err = %v, want the item 1 failure", workers, err)
		}
		// Every item still ran (no cancellation semantics), and the
		// healthy results are kept.
		if calls.Load() != 5 {
			t.Errorf("workers=%d: ran %d items, want 5", workers, calls.Load())
		}
		if len(got) != 5 || got[4] != 14 {
			t.Errorf("workers=%d: results = %v, want all 5 slots with healthy ones filled", workers, got)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	got, err := Map(4, nil, func(v int) (int, error) { return v, nil })
	if err != nil || len(got) != 0 {
		t.Errorf("empty: %v, %v", got, err)
	}
	got, err = Map(4, []int{7}, func(v int) (int, error) { return v + 1, nil })
	if err != nil || len(got) != 1 || got[0] != 8 {
		t.Errorf("single: %v, %v", got, err)
	}
	sentinel := errors.New("boom")
	if _, err := Map(0, []int{7}, func(int) (int, error) { return 0, sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("single failure: err = %v, want sentinel", err)
	}
}
