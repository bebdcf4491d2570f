package exec_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"dreamsim/internal/exec"
)

func TestDoRunsEveryUnit(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			var done [n]atomic.Int64
			err := exec.Do(context.Background(), workers, n, func(_ context.Context, i int) error {
				done[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range done {
				if got := done[i].Load(); got != 1 {
					t.Fatalf("unit %d ran %d times", i, got)
				}
			}
		})
	}
}

func TestDoSequentialOrder(t *testing.T) {
	var order []int
	err := exec.Do(context.Background(), 1, 5, func(_ context.Context, i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("workers=1 order %v, want ascending", order)
		}
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("unit 3 failed")
	errB := errors.New("unit 7 failed")
	for _, workers := range []int{1, 4} {
		err := exec.Do(context.Background(), workers, 10, func(_ context.Context, i int) error {
			switch i {
			case 3:
				return errA
			case 7:
				return errB
			}
			return nil
		})
		// Unit 3 is claimed before unit 7, so its error always wins.
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, errA)
		}
	}
}

// TestDoCancelsRemainingUnits: unit 0 fails while every other unit
// blocks until the context is cancelled, so no worker can run ahead
// of the cancel. Each worker therefore runs at most one unit.
func TestDoCancelsRemainingUnits(t *testing.T) {
	const workers = 2
	boom := errors.New("boom")
	var ran atomic.Int64
	err := exec.Do(context.Background(), workers, 1000, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if n := ran.Load(); n > workers {
		t.Fatalf("%d units ran, want at most %d (one per worker)", n, workers)
	}
}

func TestDoHonorsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := exec.Do(ctx, 4, 10, func(context.Context, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestMapAssemblesInOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		out, err := exec.Map(context.Background(), workers, 50, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapDiscardsResultsOnError(t *testing.T) {
	out, err := exec.Map(context.Background(), 2, 10, func(_ context.Context, i int) (int, error) {
		if i == 4 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("got (%v, %v), want (nil, error)", out, err)
	}
}

// TestDoWorkersExclusiveIdentity pins the contract DoWorkers adds
// over Do: a worker index is never held by two units at once, so
// per-worker scratch state needs no locking.
func TestDoWorkersExclusiveIdentity(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 200
			busy := make([]atomic.Bool, workers)
			var ran atomic.Int64
			err := exec.DoWorkers(context.Background(), workers, n,
				func(_ context.Context, w, i int) error {
					if w < 0 || w >= workers {
						return fmt.Errorf("worker index %d out of range", w)
					}
					if !busy[w].CompareAndSwap(false, true) {
						return fmt.Errorf("worker %d ran two units concurrently", w)
					}
					ran.Add(1)
					busy[w].Store(false)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if got := ran.Load(); got != n {
				t.Fatalf("ran %d of %d units", got, n)
			}
		})
	}
}

// TestDoWorkersSequentialIsWorkerZero: the workers <= 1 fast path
// claims every unit as worker 0.
func TestDoWorkersSequentialIsWorkerZero(t *testing.T) {
	err := exec.DoWorkers(context.Background(), 1, 10, func(_ context.Context, w, _ int) error {
		if w != 0 {
			return fmt.Errorf("sequential run saw worker %d", w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapWorkersAssemblesInOrder mirrors TestMapAssemblesInOrder for
// the worker-identity variant.
func TestMapWorkersAssemblesInOrder(t *testing.T) {
	out, err := exec.MapWorkers(context.Background(), 4, 50,
		func(_ context.Context, _, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d holds %d", i, v)
		}
	}
}
