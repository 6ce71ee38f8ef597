package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. The development host is a shared VM whose speed
// drifts with its neighbours' load in two ways (see README.md): its vCPUs
// run up to 1.7x slower for seconds to minutes at a time, and the
// hypervisor takes up to a third of their time for other guests (steal
// time). A run therefore measures the host as it goes. Between jobs it
// times a fixed calibration kernel and reads the steal counter, and every
// timing metric divides each stretch of time it measured by the host factor
// around it: the kernel's median time there over its time on the
// development host, divided by the share of the vCPUs' busy time that was
// not stolen.
// Timings read as seconds of the development host at its usual speed.
//
// The kernel belongs to the benchmark and does not change with the program,
// so a change to the program moves the normalized timings by the same share
// as the measured ones.
const (
	// probeEvery is the least time between two calibrations, and the
	// longest stretch of time one host factor applies to.
	probeEvery = 250 * time.Millisecond
	// probeReps kernel runs make one calibration; its value is their median.
	probeReps = 3
	// probeWindow: a stretch's host factor is the median calibration within
	// this distance of it (else the nearest one on each side).
	probeWindow = time.Second
	// probeRefNs is about the kernel's median time on the development host
	// (1.8 to 2.3 ms over a day), which makes the host factor about 1 there.
	probeRefNs = 2.0e6
)

// The kernel mixes three kinds of work the program's time goes to: a
// switch-dispatched interpreter loop over a fixed random program that loads
// from a 1 MiB table (the VM), a sort (the compiler passes' branchy data
// work), and an open-addressing hash table (maps, caches and the store's
// lookups). It allocates nothing and its memory is mapped outside the Go
// heap, so it adds nothing to the memory metrics and leaves the collector's
// pacing alone.
const (
	kProgLen  = 4096
	kMemWords = 1 << 17
	kSteps    = 200_000
	kSortLen  = 1 << 13
	kTabSlots = 1 << 16
	kTabKeys  = 20_000
)

type calKernel struct {
	buf  []byte   // the mapping the slices below share
	prog []uint64 // op | a<<8 | b<<16 | c<<24 | imm<<32
	mem  []uint64
	keys []int // copied into work and sorted on every run
	work []int
	tab  []uint64
}

var kernelSink uint64

func newKernel() (*calKernel, error) {
	words := kProgLen + kMemWords + 2*kSortLen + kTabSlots
	buf, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration kernel memory: %w", err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&buf[0])), words)
	k := &calKernel{buf: buf, prog: all[:kProgLen], mem: all[kProgLen : kProgLen+kMemWords]}
	rest := all[kProgLen+kMemWords:]
	ints := unsafe.Slice((*int)(unsafe.Pointer(&rest[0])), 2*kSortLen)
	k.keys, k.work, k.tab = ints[:kSortLen], ints[kSortLen:], rest[2*kSortLen:]
	r := rand.New(rand.NewSource(20240422))
	for i := range k.prog {
		k.prog[i] = uint64(r.Intn(8)) | uint64(r.Intn(16))<<8 | uint64(r.Intn(16))<<16 |
			uint64(r.Intn(16))<<24 | uint64(r.Intn(kProgLen))<<32
	}
	for i := range k.mem {
		k.mem[i] = r.Uint64()
	}
	for i := range k.keys {
		k.keys[i] = r.Int()
	}
	return k, nil
}

// run does the same work every time: the interpreted program only reads
// memory, so it takes the same path on every run.
func (k *calKernel) run() {
	var r [16]uint64
	for i := range r {
		r[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	const mask = kMemWords - 1
	pc := 0
	for s := 0; s < kSteps; s++ {
		in := k.prog[pc]
		a, b, c, imm := in>>8&15, in>>16&15, in>>24&15, in>>32
		pc++
		switch in & 7 {
		case 0:
			r[a] = r[b] + r[c]
		case 1:
			r[a] = r[b] ^ r[c]<<3
		case 2:
			r[a] = k.mem[(r[b]+imm)&mask]
		case 3:
			r[a] = k.mem[(r[b]^imm)&mask] + r[c]
		case 4:
			if r[a]&1 == 0 {
				pc = int(imm)
			}
		case 5:
			r[a] = r[b]*0x9E3779B1 + imm
		case 6:
			if r[a] < r[b] {
				pc = int(imm+r[c]) & (kProgLen - 1)
			}
		case 7:
			r[a] = r[b] >> (r[c] & 31)
		}
		if pc == kProgLen {
			pc = 0
		}
	}
	copy(k.work, k.keys)
	sort.Ints(k.work)
	kernelSink += r[0] + uint64(k.work[kSortLen/2]) + k.hashTable() + k.hashTable()
}

// hashTable inserts kTabKeys pseudo-random keys into an empty linear-probing
// table and looks each up again.
func (k *calKernel) hashTable() uint64 {
	clear(k.tab)
	const mask = kTabSlots - 1
	slot := func(key uint64) uint64 {
		j := key * 0x9E3779B97F4A7C15 >> 48
		for k.tab[j] != 0 && k.tab[j] != key {
			j = (j + 1) & mask
		}
		return j
	}
	x := uint64(1)
	for i := 0; i < kTabKeys; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k.tab[slot(x|1)] = x | 1
	}
	found := uint64(0)
	x = 1
	for i := 0; i < kTabKeys; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if k.tab[slot(x|1)] != 0 {
			found++
		}
	}
	return found
}

// hostClock is a run's calibration timeline. A nil clock calibrates nothing
// and leaves times as measured (traced phases report no timings).
type hostClock struct {
	k *calKernel
	// gate stops new jobs while a calibration runs: a job holds it shared,
	// a calibration exclusively, so concurrent clients finish their jobs
	// and wait.
	gate    sync.RWMutex
	last    atomic.Int64 // UnixNano of the last calibration's end
	samples []hostSample
}

// hostSample is one calibration: when it ran, the kernel's median time, and
// the vCPU time counters when it ended.
type hostSample struct {
	start, end  time.Time
	ns          float64
	steal, busy float64
}

// cpuSeconds reads, summed over this VM's vCPUs, how long the hypervisor
// has run other guests while a vCPU had work (steal), and how long the vCPUs
// ran work (user, nice, system, irq and softirq time). Both come from
// /proc/stat's cpu line, in USER_HZ ticks, which are 1/100 s on Linux. Where
// they cannot be read, both count as none.
func cpuSeconds() (steal, busy float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var ticks [8]float64
	for i := range ticks {
		if ticks[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return 0, 0
		}
	}
	// user nice system idle iowait irq softirq steal
	return ticks[7] / 100, (ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6]) / 100
}

func newHostClock() (*hostClock, error) {
	k, err := newKernel()
	if err != nil {
		return nil, err
	}
	return &hostClock{k: k}, nil
}

// close unmaps the kernel's memory.
func (h *hostClock) close() {
	if h != nil {
		syscall.Munmap(h.k.buf)
	}
}

// between runs job as one job of a round: first, if probeEvery has passed
// since the last calibration, it calibrates once every other client's job
// has returned.
func (h *hostClock) between(job func()) {
	if h == nil {
		job()
		return
	}
	if time.Now().UnixNano()-h.last.Load() >= int64(probeEvery) {
		h.gate.Lock()
		h.calibrate(false)
		h.gate.Unlock()
	}
	h.gate.RLock()
	defer h.gate.RUnlock()
	job()
}

// calibrate times the kernel, unless force is unset and another client
// calibrated within probeEvery. A collection first finishes any cycle the
// program left running, so that none overlaps the kernel.
func (h *hostClock) calibrate(force bool) {
	if h == nil || (!force && time.Now().UnixNano()-h.last.Load() < int64(probeEvery)) {
		return
	}
	start := time.Now()
	runtime.GC()
	var ns [probeReps]float64
	for i := range ns {
		t0 := time.Now()
		h.k.run()
		ns[i] = float64(time.Since(t0))
	}
	sort.Float64s(ns[:])
	end := time.Now()
	steal, busy := cpuSeconds()
	h.samples = append(h.samples, hostSample{start, end, ns[probeReps/2], steal, busy})
	h.last.Store(end.UnixNano())
}

// factor is the host factor of [a, b]. The calibrations within probeWindow
// of it (or else the nearest one on each side) give the kernel's median
// time and the share of the vCPUs' busy time stolen between the first and
// the last of them. The kernel runs too briefly for steal to reach its
// median.
func (h *hostClock) factor(a, b time.Time) float64 {
	s := h.samples
	lo := sort.Search(len(s), func(i int) bool { return !s[i].end.Before(a.Add(-probeWindow)) })
	hi := sort.Search(len(s), func(i int) bool { return s[i].start.After(b.Add(probeWindow)) })
	if lo == hi {
		lo, hi = max(lo-1, 0), min(hi+1, len(s))
	}
	ns := make([]float64, 0, hi-lo)
	for _, x := range s[lo:hi] {
		ns = append(ns, x.ns)
	}
	return median(ns) / probeRefNs / (1 - h.stolen(lo, hi-1))
}

// stolen is the share of the time the vCPUs had work that was stolen between
// calibrations i and j (widened to their neighbours when they are one), at
// most 0.9. An idle vCPU loses nothing to steal, so the share is of the
// busy time and not of all the vCPUs' time: a single-threaded job on one of
// two vCPUs loses the whole share, not half of it.
func (h *hostClock) stolen(i, j int) float64 {
	s := h.samples
	if i == j {
		i, j = max(i-1, 0), min(j+1, len(s)-1)
	}
	if i == j {
		return 0
	}
	steal, busy := s[j].steal-s[i].steal, s[j].busy-s[i].busy
	if steal <= 0 || steal+busy <= 0 {
		return 0
	}
	return min(steal/(steal+busy), 0.9)
}

// seconds returns [a, b]'s normalized length: the time outside
// calibrations, in stretches of at most probeEvery, each divided by its host
// factor.
func (h *hostClock) seconds(a, b time.Time) float64 { return h.length(a, b, h.factor) }

// measured returns [a, b]'s time outside calibrations, as measured.
func (h *hostClock) measured(a, b time.Time) float64 {
	return h.length(a, b, func(time.Time, time.Time) float64 { return 1 })
}

func (h *hostClock) length(a, b time.Time, factor func(a, b time.Time) float64) float64 {
	total := 0.0
	stretch := func(a, b time.Time) {
		for a.Before(b) {
			e := b
			if e.Sub(a) > probeEvery {
				e = a.Add(probeEvery)
			}
			total += e.Sub(a).Seconds() / factor(a, e)
			a = e
		}
	}
	for _, x := range h.samples {
		if x.end.Before(a) || !x.start.Before(b) {
			continue
		}
		stretch(a, x.start)
		a = x.end
	}
	stretch(a, b)
	return total
}

// summary returns the run's median kernel time over the reference and the
// share of the vCPUs' busy time stolen over the run.
func (h *hostClock) summary() (kernel, stolen float64) {
	ns := make([]float64, len(h.samples))
	for i, x := range h.samples {
		ns[i] = x.ns
	}
	return median(ns) / probeRefNs, h.stolen(0, len(h.samples)-1)
}
