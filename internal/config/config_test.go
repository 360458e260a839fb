package config

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"autopipe/internal/errdefs"
)

func TestZooValidatesAndMatchesTable1(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 4 {
		t.Fatalf("zoo has %d models, want 4", len(zoo))
	}
	want := map[string]struct{ layers, hidden int }{
		"GPT-2 345M": {24, 1024},
		"GPT-2 762M": {36, 1280},
		"GPT-2 1.3B": {24, 2048},
		"BERT-large": {24, 1024},
	}
	for _, m := range zoo {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		w, ok := want[m.Name]
		if !ok {
			t.Errorf("unexpected model %s", m.Name)
			continue
		}
		if m.Layers != w.layers || m.Hidden != w.hidden {
			t.Errorf("%s: %d layers / %d hidden, want %d / %d", m.Name, m.Layers, m.Hidden, w.layers, w.hidden)
		}
	}
}

func TestModelByName(t *testing.T) {
	for _, name := range []string{"gpt2-345m", "gpt2-762m", "gpt2-1.3b", "bert-large", "GPT-2 345M"} {
		if _, err := ModelByName(name); err != nil {
			t.Errorf("ModelByName(%q): %v", name, err)
		}
	}
	if _, err := ModelByName("llama"); err == nil {
		t.Error("want error for unknown model")
	}
}

func TestModelValidate(t *testing.T) {
	base := GPT2_345M()
	bad := []func(*Model){
		func(m *Model) { m.Layers = 0 },
		func(m *Model) { m.Hidden = -1 },
		func(m *Model) { m.Heads = 7 }, // does not divide 1024
		func(m *Model) { m.FFNMult = 0 },
		func(m *Model) { m.SeqLen = 0 },
		func(m *Model) { m.Vocab = 0 },
	}
	for i, mutate := range bad {
		m := base
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunMicroBatches(t *testing.T) {
	r := Run{MicroBatch: 4, GlobalBatch: 128}
	if got := r.MicroBatches(1); got != 32 {
		t.Errorf("dp=1: %d micro-batches, want 32", got)
	}
	if got := r.MicroBatches(4); got != 8 {
		t.Errorf("dp=4: %d micro-batches, want 8", got)
	}
	if got := r.MicroBatches(0); got != 32 {
		t.Errorf("dp=0 treated as 1: got %d", got)
	}
	direct := Run{MicroBatch: 4, NumMicro: 6}
	if got := direct.MicroBatches(8); got != 6 {
		t.Errorf("NumMicro run: %d, want 6", got)
	}
	tiny := Run{MicroBatch: 64, GlobalBatch: 128}
	if got := tiny.MicroBatches(16); got != 1 {
		t.Errorf("clamped micro-batches: %d, want 1", got)
	}
}

func TestRunValidate(t *testing.T) {
	if err := (Run{MicroBatch: 4, GlobalBatch: 128}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Run{MicroBatch: 0, GlobalBatch: 128}).Validate(); err == nil {
		t.Error("want error for zero micro-batch")
	}
	if err := (Run{MicroBatch: 4}).Validate(); err == nil {
		t.Error("want error for missing batch spec")
	}
	if err := (Run{MicroBatch: 3, GlobalBatch: 128}).Validate(); err == nil {
		t.Error("want error for indivisible global batch")
	}
}

func TestDefaultClusterProfile(t *testing.T) {
	cl := DefaultCluster()
	if cl.NumGPUs != 16 {
		t.Errorf("default cluster has %d GPUs, want 16", cl.NumGPUs)
	}
	if cl.Device.MemoryBytes != 24<<30 {
		t.Errorf("device memory %d, want 24 GiB", cl.Device.MemoryBytes)
	}
	if cl.Network.Bandwidth <= 0 || cl.Network.Latency <= 0 {
		t.Error("network profile not positive")
	}
}

// TestClusterValidateFixtures holds Cluster.Validate's must-accept (*_ok)
// and must-reject (*_bad) fixtures: at least one rejection per field, and
// NaN and +Inf for every float.
func TestClusterValidateFixtures(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*Cluster)
	}{
		{"default_ok", func(*Cluster) {}},
		{"one_gpu_ok", func(c *Cluster) { c.NumGPUs = 1 }},
		{"zero_costs_ok", func(c *Cluster) { c.Device.KernelOverhead, c.Network.Latency = 0, 0 }},
		{"tiny_rates_ok", func(c *Cluster) {
			c.Device.FlopsPerSec, c.Device.MemBandwidth, c.Network.Bandwidth = 1e-300, 1e-300, 1e-300
		}},
		{"huge_finite_ok", func(c *Cluster) { c.Device.FlopsPerSec = math.MaxFloat64 }},
		{"one_byte_ok", func(c *Cluster) { c.Device.MemoryBytes = 1 }},
		{"flops_negative_bad", func(c *Cluster) { c.Device.FlopsPerSec = -1 }},
		{"flops_zero_bad", func(c *Cluster) { c.Device.FlopsPerSec = 0 }},
		{"flops_nan_bad", func(c *Cluster) { c.Device.FlopsPerSec = nan }},
		{"flops_inf_bad", func(c *Cluster) { c.Device.FlopsPerSec = inf }},
		{"flops_neg_inf_bad", func(c *Cluster) { c.Device.FlopsPerSec = -inf }},
		{"mem_bandwidth_zero_bad", func(c *Cluster) { c.Device.MemBandwidth = 0 }},
		{"mem_bandwidth_nan_bad", func(c *Cluster) { c.Device.MemBandwidth = nan }},
		{"mem_bandwidth_inf_bad", func(c *Cluster) { c.Device.MemBandwidth = inf }},
		{"memory_zero_bad", func(c *Cluster) { c.Device.MemoryBytes = 0 }},
		{"memory_negative_bad", func(c *Cluster) { c.Device.MemoryBytes = -1 }},
		{"overhead_negative_bad", func(c *Cluster) { c.Device.KernelOverhead = -1e-6 }},
		{"overhead_nan_bad", func(c *Cluster) { c.Device.KernelOverhead = nan }},
		{"overhead_inf_bad", func(c *Cluster) { c.Device.KernelOverhead = inf }},
		{"bandwidth_negative_bad", func(c *Cluster) { c.Network.Bandwidth = -10e9 }},
		{"bandwidth_nan_bad", func(c *Cluster) { c.Network.Bandwidth = nan }},
		{"bandwidth_inf_bad", func(c *Cluster) { c.Network.Bandwidth = inf }},
		{"latency_negative_bad", func(c *Cluster) { c.Network.Latency = -1 }},
		{"latency_nan_bad", func(c *Cluster) { c.Network.Latency = nan }},
		{"latency_inf_bad", func(c *Cluster) { c.Network.Latency = inf }},
		{"gpus_zero_bad", func(c *Cluster) { c.NumGPUs = 0 }},
		{"gpus_negative_bad", func(c *Cluster) { c.NumGPUs = -4 }},
		{"empty_bad", func(c *Cluster) { *c = Cluster{} }},
	} {
		c := DefaultCluster()
		tc.edit(&c)
		err := c.Validate()
		if strings.HasSuffix(tc.name, "_ok") && err != nil {
			t.Errorf("%s: Validate = %v, want nil", tc.name, err)
		}
		if strings.HasSuffix(tc.name, "_bad") && !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: Validate = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	want := DefaultCluster()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load[Cluster](path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip mismatch: %+v vs %+v", got, want)
	}
	if _, err := Load[Cluster](filepath.Join(dir, "missing.json")); err == nil {
		t.Error("want error for missing file")
	}
}
