package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// refNominal is the reference kernel's time on the idle reference host (a
// 2-vCPU Xeon VM, 2 goroutines). It only sets the scale of the host-adjusted
// timings: they read as seconds on a host where the kernel takes this long.
const refNominal = 0.050

// refSink keeps the kernel's results live so the compiler keeps its work.
var refSink uint64

// reference runs the reference kernel on a freshly collected heap, on as
// many goroutines as the engine has workers, and returns its wall time.
//
// The shared host's speed drifts by up to 2x within minutes as other tenants
// load its caches and memory, and a run's timings drift with it. The kernel
// is standard-library work (sorting, hash maps, small allocations) that no
// change to this repository touches, and its time follows the host's speed:
// scaling a leg by refNominal over the kernel times around it cut the spread
// of 20-second medians of leg times by 2 to 9 times on the reference host.
func reference(workers int) float64 {
	runtime.GC()
	out := make([]uint64, workers)
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[g] = refKernel(uint64(g) + 1)
		}()
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, v := range out {
		refSink += v
	}
	return d
}

type refNode struct {
	next *refNode
	v    [6]uint64
}

func refKernel(x uint64) uint64 {
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	v := make([]float64, 1<<16)
	for i := range v {
		v[i] = float64(next() >> 11)
	}
	sort.Float64s(v)
	small := make(map[uint64]int)
	for i := 0; i < 1<<16; i++ {
		small[next()&0xfffff] += i
	}
	big := make(map[uint64]uint64, 1<<17)
	for i := 0; i < 1<<17; i++ {
		k := next()
		big[k&0xffffffffff] = k
	}
	var acc uint64
	for i := 0; i < 1<<17; i++ {
		acc += uint64(small[next()&0xfffff])
	}
	for i := 0; i < 1<<18; i++ {
		acc += big[next()&0xffffffffff]
	}
	var head *refNode
	for i := 0; i < 200000; i++ {
		n := &refNode{next: head}
		n.v[0] = uint64(i)
		if i%4 == 0 {
			head = n
		}
	}
	return acc + head.v[0] + uint64(v[len(v)/2])
}
