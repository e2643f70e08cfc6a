package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Every input the program sees comes from here, as a pure function of the
// workload seed and the op index: the same seed gives byte-identical
// requests, and no op depends on how fast earlier ops ran.

// rngFor returns the random stream for (seed, stream, index).
func rngFor(seed int64, stream string, index int) *rand.Rand {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(index))
	h.Write(b[:])
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// golden returns the fractional part of x + i*phi: a low-discrepancy
// sequence whose values are distinct for distinct i, which is what makes
// per-op scale factors unique without bookkeeping.
func golden(x float64, i int) float64 {
	_, f := math.Modf(x + float64(i)*0.6180339887498949)
	return f
}

// op is one unit of work: a /v2/jobs request body (or, for sim-l2sweep,
// the scenario document run in-process) plus what verification needs.
type op struct {
	index int
	body  []byte // /v2/jobs request body; nil for the in-process sweep
	doc   []byte // the scenario document the job carries
}

// scenarioDoc is the /v2 scenario document shape, written with the JSON
// field names internal/spec reads.
type scenarioDoc struct {
	Name      string        `json:"name"`
	Workloads []workloadDoc `json:"workloads"`
	Devices   []deviceDoc   `json:"devices"`
	Batches   []int         `json:"batches,omitempty"`
	Models    []string      `json:"models,omitempty"`
	Passes    []string      `json:"passes,omitempty"`
	SimCfgs   []struct{}    `json:"sim_configs,omitempty"`
}

type workloadDoc struct {
	Network string     `json:"network,omitempty"`
	Name    string     `json:"name,omitempty"`
	Layers  []layerDoc `json:"layers,omitempty"`
}

type layerDoc struct {
	Name   string `json:"name"`
	B      int    `json:"b"`
	Ci     int    `json:"ci"`
	Hi     int    `json:"hi"`
	Co     int    `json:"co"`
	Hf     int    `json:"hf"`
	Stride int    `json:"stride"`
	Pad    int    `json:"pad"`
}

type deviceDoc struct {
	Name  string             `json:"name,omitempty"`
	Base  string             `json:"base,omitempty"`
	Scale map[string]float64 `json:"scale,omitempty"`
	Spec  *deviceSpecDoc     `json:"spec,omitempty"`
}

type deviceSpecDoc struct {
	Base     string  `json:"base"`
	Name     string  `json:"name,omitempty"`
	L2SizeMB float64 `json:"l2_size_mb"`
}

var tableI = []string{"TITAN Xp", "P100", "V100"}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled here
	}
	return b
}

func jobBody(doc []byte) []byte {
	return mustJSON(map[string]json.RawMessage{"scenario": doc})
}

// exploreOp is explore-jobs op i: the Fig. 16 design-space sweep of
// {resnet152full, googlenet} x batches {64, 256} x four scaled Table I
// devices x {delta, prior, roofline inference; delta training} = 64
// points. The base device, SM and MAC factors cycle through their 27
// combinations with the device index, so every seed asks for the same mix
// of work; the seed moves the bandwidth factors, which follow a
// golden-ratio sequence so that no two jobs share a device and every job
// misses the memo.
func exploreOps(seed int64) func(i int) op {
	return func(i int) op { return exploreOp(seed, i) }
}

func exploreOp(seed int64, i int) op {
	base := rngFor(seed, "explore-base", 0).Float64()
	devs := make([]deviceDoc, 4)
	for d := range devs {
		k := 4*i + d
		devs[d] = deviceDoc{
			Base: tableI[k%3],
			Scale: map[string]float64{
				"num_sm":     []float64{1, 1.5, 2}[k/3%3],
				"mac_per_sm": []float64{1, 2, 4}[k/9%3],
				"l2_bw":      1 + 2*golden(base, 2*k),
				"dram_bw":    1 + 2*golden(base, 2*k+1),
			},
		}
	}
	doc := mustJSON(scenarioDoc{
		Name:      fmt.Sprintf("explore-%d", i),
		Workloads: []workloadDoc{{Network: "resnet152full"}, {Network: "googlenet"}},
		Devices:   devs,
		Batches:   []int{64, 256},
		Models:    []string{"delta", "prior", "roofline"},
		Passes:    []string{"inference", "training"},
	})
	return op{index: i, body: jobBody(doc), doc: doc}
}

const explorePoints = 64

// l2Size returns a seeded L2 capacity near base MB: one of the 16 KB steps
// within +-25% of it. Distinct k give distinct capacities (no two round to
// the same cache geometry).
func l2Size(baseMB float64, k int) float64 {
	steps := int(baseMB * 64)                  // 16 KB steps in base
	return float64(steps*3/4+k%(steps/2)) / 64 // in [0.75, 1.25) x base
}

// simSweepOp is the sim-l2sweep op: GoogLeNet at B=2 plus one large
// single conv layer, each on 4 TITAN Xp variants with seeded L2
// capacities, one from each quarter of the +-25% band so every seed
// sweeps the same range. Every sweep of a run is this same document, run
// through a fresh pipeline as a CLI run would.
func simSweepOp(seed int64) op {
	r := rngFor(seed, "sim-l2sweep", 0)
	devs := make([]deviceDoc, 4)
	for d := range devs {
		mb := l2Size(3, 24*d+r.Intn(24)) // 96 steps = half the TITAN Xp's 192 16-KB steps
		devs[d] = deviceDoc{Spec: &deviceSpecDoc{Base: "TITAN Xp", Name: fmt.Sprintf("TITAN Xp L2 %gMB", mb), L2SizeMB: mb}}
	}
	big := layerDoc{Name: "big", B: 8, Ci: 256, Hi: 27, Co: 256, Hf: 3, Stride: 1, Pad: 1}
	doc := mustJSON(scenarioDoc{
		Name:      "l2sweep",
		Workloads: []workloadDoc{{Network: "googlenet"}, {Name: "big", Layers: []layerDoc{big}}},
		Devices:   devs,
		Batches:   []int{2},
		SimCfgs:   []struct{}{{}},
	})
	return op{doc: doc}
}

const simSweepPoints = 8

// fleetOp is fleet-sim op i: {alexnet, googlenet, resnet152} x B {1, 2} x
// {TITAN Xp, P100, V100} simulation points, 18 in all. Each device's L2
// capacity steps through the +-25% band from a seeded start, so no two of
// the first 96 jobs of a run share a device and the workers' memos miss.
func fleetOps(seed int64) func(i int) op {
	return func(i int) op { return fleetOp(seed, i) }
}

func fleetOp(seed int64, i int) op {
	devs := make([]deviceDoc, len(tableI))
	for d, name := range tableI {
		base := []float64{3, 4, 6}[d]
		steps := int(base*64) / 2
		// Stepping by 37, prime to every step count, visits each capacity
		// once per steps jobs and spreads any run's jobs over the band.
		start := rngFor(seed, "fleet-l2", d).Intn(steps)
		mb := l2Size(base, (start+37*i)%steps)
		// The device keeps its Table I name: the coordinator routes shards
		// by workload and device name, so every job splits the same way.
		devs[d] = deviceDoc{Spec: &deviceSpecDoc{Base: name, L2SizeMB: mb}}
	}
	doc := mustJSON(scenarioDoc{
		Name:      fmt.Sprintf("fleet-%d", i),
		Workloads: []workloadDoc{{Network: "alexnet"}, {Network: "googlenet"}, {Network: "resnet152"}},
		Devices:   devs,
		Batches:   []int{1, 2},
		SimCfgs:   []struct{}{{}},
	})
	return op{index: i, body: jobBody(doc), doc: doc}
}

const fleetPoints = 18
