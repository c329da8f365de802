package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// laps records the timed phase as a series of laps. A workload's laps all
// do the same work — the same requests in the same order, or the same mix
// of them — so whatever differs between two laps of a run is the machine,
// not the input.
//
// The machine is a guest on a shared host, and its neighbours only ever
// slow it down: for a fraction of a second, for some seconds, for minutes.
// A total or a percentile over the whole phase carries every such burst,
// and even the median lap is a disturbed one when the bursts cover half the
// phase. So every timing the run reports is the figure of the lap at the
// quiet quartile — three quarters of the laps were slower — and that figure
// is then expressed at the reference speed (see calibrator), which takes
// out the slow phases that outlast a run.
type laps struct {
	nodes []*node
	cal   *calibrator
	start time.Time
	at    time.Time // start of the current lap
	cpu   float64   // the servers' CPU seconds at that moment
	cpu0  float64

	rate, cost, p50, tail samples    // one value per lap, as measured
	all                   samples    // every latency of the phase, for the per-layer whole-phase percentiles
	steal                 [2]float64 // the machine's stolen and total CPU ticks at the start
}

// tailPercentile is the percentile of the primary operation's latency
// within a lap that tail_ms reports. The shortest lap has 24 operations, so
// this is the highest percentile that every lap can give.
const tailPercentile = 95

func startLaps(cal *calibrator, nodes ...*node) *laps {
	l := &laps{cal: cal, nodes: nodes}
	l.steal[0], l.steal[1] = machineTicks()
	l.cpu0 = l.serverCPU()
	l.start = time.Now()
	l.at, l.cpu = l.start, l.cpu0
	return l
}

func (l *laps) serverCPU() float64 {
	cpu := 0.0
	for _, n := range l.nodes {
		cpu += n.cpuSeconds()
	}
	return cpu
}

// elapsed is the time since the first lap started.
func (l *laps) elapsed() float64 { return time.Since(l.start).Seconds() }

// end closes the current lap, in which the primary operations took lat
// milliseconds each (at least one completed), and opens the next one. A lap must span many CPU
// ticks (10 ms) for its CPU figure to mean anything; the sizes are chosen
// for laps of about a second.
func (l *laps) end(lat samples) {
	now, cpu := time.Now(), l.serverCPU()
	n := float64(len(lat))
	l.rate.add(n / now.Sub(l.at).Seconds())
	l.cost.add((cpu - l.cpu) * 1e3 / n)
	l.p50.add(percentile(lat, 50))
	l.tail.add(percentile(lat, tailPercentile))
	l.all = append(l.all, lat...)
	l.at, l.cpu = now, cpu
}

// quietQuartile is the percentile of the laps a run reports: the first
// quartile of a time, the third of a rate.
const quietQuartile = 25

// report writes the end-to-end timings of the phase into the run, and the
// servers' total CPU seconds and the share of the machine's CPU time the
// hypervisor gave to someone else during the phase into the per-layer
// list: a run with a large steal share was disturbed.
func (l *laps) report(b *bench) {
	slow := l.cal.slowdown(l.start, l.at)
	b.e2e["ops_s"] = percentile(l.rate, 100-quietQuartile) * slow
	b.e2e["p50_ms"] = percentile(l.p50, quietQuartile) / slow
	b.e2e["tail_ms"] = percentile(l.tail, quietQuartile) / slow
	b.e2e["server_cpu_ms_per_op"] = percentile(l.cost, quietQuartile) / slow
	stolen, total := machineTicks()
	b.layer["proc.cpu_s"] = l.cpu - l.cpu0
	b.layer["proc.steal_share"] = ratio(stolen-l.steal[0], total-l.steal[1])
	b.layer["proc.laps"] = float64(len(l.rate))
	b.layer["proc.host_slowdown"] = slow
	for _, n := range l.nodes {
		b.layer["proc.rss_mb_peak"] = max(b.layer["proc.rss_mb_peak"], n.rssPeakMB())
	}
}

// machineTicks reads the first line of /proc/stat: the steal column and the
// sum of all columns.
func machineTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// The calibration kernel: a fixed piece of work of the kind the server does
// — walking a tree on the heap, comparing and building strings, filling a
// map, sorting — that depends on nothing in the repository under test.
//
// The sandbox is a guest on a shared host. For minutes at a time a
// neighbour slows every process in it by up to 50 % without any of that
// showing as stolen time: the same server, the same requests, 50 % more CPU
// seconds. Two runs of the same code then differ by more than any bound
// worth having. So the harness times this kernel beside the load for as
// long as a run lasts, and the run's timings are divided by how much slower
// than the reference the kernel ran meanwhile: they are expressed at the
// speed of the reference sandbox in a quiet phase. The factor is reported as
// proc.host_slowdown; multiply a time by it to get back what a stopwatch
// showed.
type calNode struct {
	tag, text string
	kids      []*calNode
}

var calTree = func() *calNode {
	x := uint64(99)
	var build func(depth int) *calNode
	build = func(depth int) *calNode {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &calNode{tag: "t" + strconv.Itoa(int(x%7)), text: "v" + strconv.Itoa(int(x%1000))}
		for i := 0; depth > 0 && i < 4; i++ {
			n.kids = append(n.kids, build(depth-1))
		}
		return n
	}
	return build(6) // 5 461 nodes
}()

func (n *calNode) find(tag, above string, out []string) []string {
	if n.tag == tag && n.text > above {
		out = append(out, n.text+"/"+n.tag)
	}
	for _, k := range n.kids {
		out = k.find(tag, above, out)
	}
	return out
}

func calKernel() int {
	total := 0
	for r := 0; r < 8; r++ {
		count := map[string]int{}
		for _, v := range calTree.find("t"+strconv.Itoa(r%7), "v5", nil) {
			count[v]++
		}
		keys := make([]string, 0, len(count))
		for k := range count {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		total += len(keys)
	}
	return total
}

// calReferenceMs is what calKernel takes on the reference sandbox in a
// quiet phase (the figure calibrator.slowdown computes, before dividing).
const calReferenceMs = 1.22

// calibrator times the kernel every calEvery for as long as the run lasts,
// beside the load: about 2 % of one core.
type calibrator struct {
	mu   sync.Mutex
	at   []time.Time
	ms   []float64
	stop chan struct{}
	done sync.WaitGroup
}

const calEvery = 50 * time.Millisecond

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{})}
	c.sample()
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *calibrator) sample() {
	start := time.Now()
	calKernel()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	c.mu.Lock()
	c.at, c.ms = append(c.at, start), append(c.ms, ms)
	c.mu.Unlock()
}

func (c *calibrator) close() {
	close(c.stop)
	c.done.Wait()
}

// slowdown returns how many times slower than the reference the host ran
// between from and to: the quiet quartile of the kernel's times in that
// interval over the reference, as for the laps — a kernel run that a burst
// or the scheduler interrupted says nothing about the speed of the
// processor.
func (c *calibrator) slowdown(from, to time.Time) float64 {
	c.mu.Lock()
	var in samples
	for i, at := range c.at {
		if !at.Before(from) && at.Before(to) {
			in.add(c.ms[i])
		}
	}
	c.mu.Unlock()
	if len(in) == 0 { // an interval shorter than calEvery
		c.sample()
		c.mu.Lock()
		in.add(c.ms[len(c.ms)-1])
		c.mu.Unlock()
	}
	return percentile(in, quietQuartile) / calReferenceMs
}
