package main

import (
	"fmt"
	"math/rand/v2"

	"autopipe"
	"autopipe/client"
	"autopipe/internal/service"
)

// The planning config space every planner and service workload draws from:
// the model zoo × GPU counts × micro-batch sizes × micro-batches per
// iteration. The global batch is MicroBatch × micros, so micros bounds the
// micro-batches one pipeline runs (at data parallelism 1); without the bound
// a few huge-m configs dominate every latency tail.
var (
	spaceGPUs       = []int{4, 8, 16}
	spaceMicroBatch = []int{1, 2, 4, 8, 16, 32}
)

const (
	minMicros = 8
	maxMicros = 128
	// microBuckets splits [minMicros, maxMicros] into equal sub-ranges; each
	// cell draws from every bucket once per microBuckets rounds.
	microBuckets = 8
)

// planConfig is one planning request: the triple Planner.Plan takes.
type planConfig struct {
	Model   autopipe.Model
	Run     autopipe.Run
	Cluster autopipe.Cluster
}

// request is the daemon submission for the config.
func (c planConfig) request() client.SubmitRequest {
	return client.SubmitRequest{Kind: client.KindPlan, Plan: &client.PlanPayload{Model: c.Model, Run: c.Run, Cluster: c.Cluster}}
}

func (c planConfig) String() string {
	return fmt.Sprintf("%s gpus=%d mbs=%d gbs=%d", c.Model.Name, c.Cluster.NumGPUs, c.Run.MicroBatch, c.Run.GlobalBatch)
}

// stratum is one (model, GPUs, micro-batch) cell of the space; a draw picks
// the micro-batch count within it.
type stratum struct {
	model     autopipe.Model
	gpus, mbs int
}

// feasible excludes the one cell where no plan fits device memory.
func (s stratum) feasible() bool {
	return !(s.model.Name == autopipe.GPT2_1_3B().Name && s.gpus == 4 && s.mbs == 32)
}

func spaceStrata() []stratum {
	var out []stratum
	for _, m := range autopipe.Models() {
		for _, g := range spaceGPUs {
			for _, mbs := range spaceMicroBatch {
				if s := (stratum{m, g, mbs}); s.feasible() {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// configGen draws distinct configs from the space, deterministically from a
// seed. Draws are stratified: every round visits each cell once in a seeded
// order, and every microBuckets rounds each cell draws once from each
// micro-batch-count bucket. Any long prefix of the sequence therefore
// covers the space evenly, and a run's cost does not hinge on which configs
// a seed happened to favour.
type configGen struct {
	rng     *rand.Rand
	strata  []stratum
	used    []map[int]bool
	buckets [][]int // per cell, the seeded bucket order of the current cycle
	round   int
	order   []int
	pos     int
	keys    map[string]bool
}

func newConfigGen(seed uint64) *configGen {
	st := spaceStrata()
	g := &configGen{
		rng:     rand.New(rand.NewPCG(seed, 0x6175746f70697065)),
		strata:  st,
		used:    make([]map[int]bool, len(st)),
		buckets: make([][]int, len(st)),
		keys:    map[string]bool{},
	}
	for i := range g.used {
		g.used[i] = map[int]bool{}
	}
	return g
}

// next returns a config whose service.Key no earlier draw had.
func (g *configGen) next() (planConfig, error) {
	if g.pos == len(g.order) {
		if g.round%microBuckets == 0 {
			for i := range g.buckets {
				g.buckets[i] = g.rng.Perm(microBuckets)
			}
		}
		g.order = g.rng.Perm(len(g.strata))
		g.pos = 0
		g.round++
	}
	si := g.order[g.pos]
	g.pos++
	s := g.strata[si]
	b := g.buckets[si][(g.round-1)%microBuckets]
	lo := minMicros + b*(maxMicros-minMicros+1)/microBuckets
	hi := minMicros + (b+1)*(maxMicros-minMicros+1)/microBuckets // exclusive
	free := 0
	for n := lo; n < hi; n++ {
		if !g.used[si][n] {
			free++
		}
	}
	if free == 0 {
		return planConfig{}, fmt.Errorf("config space exhausted in cell %s/%d GPUs/mbs %d, micros [%d,%d)", s.model.Name, s.gpus, s.mbs, lo, hi)
	}
	pick := g.rng.IntN(free)
	n := lo
	for ; ; n++ {
		if !g.used[si][n] {
			if pick == 0 {
				break
			}
			pick--
		}
	}
	g.used[si][n] = true
	cl := autopipe.DefaultCluster()
	cl.NumGPUs = s.gpus
	c := planConfig{
		Model:   s.model,
		Run:     autopipe.Run{MicroBatch: s.mbs, GlobalBatch: s.mbs * n, Checkpoint: true},
		Cluster: cl,
	}
	key, err := service.Key(c.request())
	if err != nil {
		return planConfig{}, err
	}
	if g.keys[key] {
		return planConfig{}, fmt.Errorf("config generator repeated key %s for %s", key, c)
	}
	g.keys[key] = true
	return c, nil
}

// take draws n distinct configs.
func (g *configGen) take(n int) ([]planConfig, error) {
	out := make([]planConfig, n)
	for i := range out {
		c, err := g.next()
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
