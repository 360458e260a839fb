package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"autopipe"
	"autopipe/client"
	"autopipe/internal/errdefs"
)

func planReq(mutate func(*client.PlanPayload)) client.SubmitRequest {
	p := &client.PlanPayload{
		Model:   autopipe.GPT2_345M(),
		Run:     autopipe.Run{MicroBatch: 4, GlobalBatch: 128, Checkpoint: true},
		Cluster: autopipe.DefaultCluster(),
	}
	if mutate != nil {
		mutate(p)
	}
	return client.SubmitRequest{Kind: client.KindPlan, Plan: p}
}

// TestKeyDeterministic proves equal requests hash to equal, stable keys.
func TestKeyDeterministic(t *testing.T) {
	k1, err := Key(planReq(nil))
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	k2, err := Key(planReq(nil))
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if k1 != k2 {
		t.Errorf("identical requests keyed differently: %q vs %q", k1, k2)
	}
	if !strings.HasPrefix(k1, "sha256:") || len(k1) != len("sha256:")+64 {
		t.Errorf("key %q is not a sha256 content address", k1)
	}
}

// TestKeySensitivity proves every result-determining field moves the key —
// and that the key document versioning leaves room to invalidate.
func TestKeySensitivity(t *testing.T) {
	base, err := Key(planReq(nil))
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	variants := map[string]client.SubmitRequest{
		"model":   planReq(func(p *client.PlanPayload) { p.Model = autopipe.BERTLarge() }),
		"run":     planReq(func(p *client.PlanPayload) { p.Run.GlobalBatch = 256 }),
		"cluster": planReq(func(p *client.PlanPayload) { p.Cluster.NumGPUs = 8 }),
		"budget":  planReq(func(p *client.PlanPayload) { p.Budget = 100 }),
	}
	for name, req := range variants {
		k, err := Key(req)
		if err != nil {
			t.Fatalf("Key(%s): %v", name, err)
		}
		if k == base {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}

	// Different kinds never collide, even over the same payload bytes.
	prof := &autopipe.StageProfile{Fwd: []float64{1, 1}, Bwd: []float64{2, 2}, Comm: 0.1, Micro: 4}
	kSim, err := Key(client.SubmitRequest{Kind: client.KindSimulate, Profile: prof})
	if err != nil {
		t.Fatalf("Key(simulate): %v", err)
	}
	kSlice, err := Key(client.SubmitRequest{Kind: client.KindSlice, Profile: prof})
	if err != nil {
		t.Fatalf("Key(slice): %v", err)
	}
	if kSim == kSlice {
		t.Errorf("simulate and slice keyed identically over the same profile")
	}
}

// TestKeyUnknownKind proves unkeyable requests fail with the typed sentinel.
func TestKeyUnknownKind(t *testing.T) {
	_, err := Key(client.SubmitRequest{Kind: "transmogrify"})
	if !errors.Is(err, errdefs.ErrBadConfig) {
		t.Errorf("Key(unknown kind) = %v, want ErrBadConfig", err)
	}
}

// TestPlanKeyDocMatchesJSON holds the plan key's append encoder to
// encoding/json byte for byte, so keys never change under a persisted job
// store. Payloads come from testing/quick, which fills every field —
// including any added later — with random values and arbitrary Unicode
// names; half the draws then swap in floats at encoding/json's notation
// cut-offs and names that need escaping.
func TestPlanKeyDocMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 312e12, 900e9, 25e-6, 1e-6, 9.999999e-7, 1e-7,
		1.5e-300, 5e-324, 1e20, 1e21, 123456789e13, -1e21, math.MaxFloat64, math.SmallestNonzeroFloat64}
	names := []string{"", "GPT-2 345M", "A100 <40GB> & more", `quote " backslash \`, "tab\tnewline\n",
		"\u2028\u2029", "\xff\xfe invalid", "ünïcode 模型", "del\x7f"}
	typ := reflect.TypeOf(client.PlanPayload{})
	for trial := 0; trial < 5000; trial++ {
		v, ok := quick.Value(typ, rng)
		if !ok {
			t.Fatal("quick cannot generate a PlanPayload")
		}
		p := v.Interface().(client.PlanPayload)
		if trial%2 == 0 {
			pick := func() float64 { return floats[rng.Intn(len(floats))] }
			p.Cluster.Device.FlopsPerSec, p.Cluster.Device.MemBandwidth, p.Cluster.Device.KernelOverhead = pick(), pick(), pick()
			p.Cluster.Network.Bandwidth, p.Cluster.Network.Latency = pick(), pick()
			p.Model.Name, p.Cluster.Device.Name = names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			if rng.Intn(2) == 0 {
				p.Budget = 0
			}
		}
		req := client.SubmitRequest{Kind: client.KindPlan, Plan: &p}
		want, err := marshalKeyDoc(req)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendPlanKeyDoc(nil, req)
		if !ok || string(got) != string(want) {
			t.Fatalf("payload %+v:\nappend %s (ok %v)\njson   %s", p, got, ok, want)
		}
	}
}

// TestPlanKeyMatchesJSONOverConfigGrid checks the full key, hash included,
// over a planner-shaped grid: every zoo model on 4/8/16 GPUs at every
// micro-batch size 1..32 and several global batches, with and without a
// budget.
func TestPlanKeyMatchesJSONOverConfigGrid(t *testing.T) {
	n := 0
	for _, mc := range autopipe.Models() {
		for _, gpus := range []int{4, 8, 16} {
			for mbs := 1; mbs <= 32; mbs++ {
				for _, micros := range []int{8, 37, 128} {
					cl := autopipe.DefaultCluster()
					cl.NumGPUs = gpus
					p := &client.PlanPayload{Model: mc, Run: autopipe.Run{MicroBatch: mbs, GlobalBatch: mbs * micros, Checkpoint: true}, Cluster: cl, Budget: micros % 2 * 50}
					req := client.SubmitRequest{Kind: client.KindPlan, Plan: p}
					got, err := Key(req)
					if err != nil {
						t.Fatal(err)
					}
					data, err := marshalKeyDoc(req)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(data)
					if want := "sha256:" + hex.EncodeToString(sum[:]); got != want {
						t.Fatalf("%s/%d GPUs/mbs %d/%d micros: Key %s, encoding/json %s", mc.Name, gpus, mbs, micros, got, want)
					}
					n++
				}
			}
		}
	}
	t.Logf("%d configs", n)
}

// TestKeyRejectsNonFinitePlan: a plan payload with a NaN or infinite float
// leaves the append encoder for encoding/json, which refuses it with the
// typed sentinel, as before the encoder existed.
func TestKeyRejectsNonFinitePlan(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := planReq(func(p *client.PlanPayload) { p.Cluster.Network.Latency = bad })
		if _, err := Key(req); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("latency %v: Key = %v, want ErrBadConfig", bad, err)
		}
	}
	if _, ok := appendPlanKeyDoc(nil, client.SubmitRequest{Kind: client.KindPlan}); ok {
		t.Error("append encoder accepted a plan request without a payload")
	}
}

// BenchmarkKey times the cache key of one plan request.
func BenchmarkKey(b *testing.B) {
	req := planReq(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Key(req); err != nil {
			b.Fatal(err)
		}
	}
}
