package main

import (
	"runtime"
	"testing"
	"time"
)

// TestWatchLiveHeap checks the once-per-cycle watch sees a live heap
// that a later cycle frees.
func TestWatchLiveHeap(t *testing.T) {
	stop := watchLiveHeap()
	var keep [][]byte
	for i := 0; i < 50; i++ {
		keep = append(keep, make([]byte, 1<<20))
	}
	runtime.GC()
	time.Sleep(10 * time.Millisecond) // let the finalizer run
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	runtime.KeepAlive(keep) // the slice dies here
	runtime.GC()
	runtime.GC()
	p := stop()
	if p < 50<<20 {
		t.Errorf("peak live heap %d MB, want at least the 50 MB held across two cycles", p>>20)
	}
}
