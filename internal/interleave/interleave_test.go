package interleave

import (
	"runtime"
	"sync"
	"testing"
)

func TestExplicitSettings(t *testing.T) {
	for _, tc := range []struct {
		yieldEvery, every int
		on                bool
	}{
		{yieldEvery: 1, every: 1, on: true},
		{yieldEvery: 4, every: 4, on: true},
		{yieldEvery: -1, every: 0, on: false},
	} {
		var p Policy
		p.Init(tc.yieldEvery)
		for _, thread := range []uint16{0, 1, 1000} {
			if got := p.Enter(thread); got != tc.on {
				t.Errorf("YieldEvery %d: Enter(%d) = %v, want %v", tc.yieldEvery, thread, got, tc.on)
			}
		}
		if p.On() != tc.on || p.Every() != tc.every {
			t.Errorf("YieldEvery %d: On() = %v, Every() = %d; want %v, %d",
				tc.yieldEvery, p.On(), p.Every(), tc.on, tc.every)
		}
	}
}

func TestAdaptiveSwitchesOnAtFirstOversubscribingThread(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	var p Policy
	p.Init(0)
	if p.Every() != defaultEvery {
		t.Fatalf("Every() = %d, want %d", p.Every(), defaultEvery)
	}
	for thread := uint16(0); thread < 3; thread++ {
		if p.Enter(thread) || p.On() {
			t.Fatalf("thread %d of GOMAXPROCS 3 switched yields on", thread)
		}
	}
	if !p.Enter(3) || !p.On() || !p.Enter(0) {
		t.Fatal("thread 3 of GOMAXPROCS 3 left yields off")
	}
}

// TestAdaptiveConcurrentEnterKeepsMaximum races registrations from many
// goroutines; the recorded maximum must be the highest ID entered.
func TestAdaptiveConcurrentEnterKeepsMaximum(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	var p Policy
	p.Init(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Enter(uint16((g*1000 + i) % 64))
			}
		}(g)
	}
	wg.Wait()
	if got := p.seen.Load(); got != 64 {
		t.Fatalf("seen = %d, want 64", got)
	}
}
