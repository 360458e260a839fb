package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"autopipe/internal/nn"
)

// The GPT-mini training step the perfbench train-step workload runs: 4
// layers, hidden 32, 16 tokens, cut over 3 stages at the planner's bounds,
// 6 micro-batches of 2 with the Slicer's one sliced micro-batch.
var (
	miniCfg    = nn.GPTConfig{Vocab: 97, MaxSeq: 16, Hidden: 32, Heads: 4, Layers: 4, FFNMult: 4, Seed: 1}
	miniBounds = []int{0, 5, 6, 10}
	miniSliced = 1
	miniMicros = 6
	miniBatch  = 2
	miniScale  = 1.0 / float64(miniMicros*miniBatch*16)
)

// stepDigest hashes the loss and every parameter gradient, in parameter
// order, by their exact bit patterns.
func stepDigest(loss float64, params []*nn.Param) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	put(loss)
	for _, p := range params {
		for _, v := range p.Grad.Data {
			put(v)
		}
	}
	return h.Sum64()
}

// TestStepDigest pins one sliced pipelined step and one serial step of
// GPT-mini bit for bit: any change to the arithmetic anywhere in the
// tensor/nn stack (kernel summation order, a fused accumulation, a
// reordered attention loop) changes a digest. The digests are amd64's:
// math.Exp and math.Tanh are implemented per architecture, so other
// architectures legitimately differ in the last bits.
func TestStepDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	const wantPipe, wantSerial = uint64(0x8b4e031278f727ff), uint64(0x194f72d85d079991)

	pipe, err := NewPipeline(nn.BuildGPT(miniCfg), miniBounds)
	if err != nil {
		t.Fatal(err)
	}
	micros := NewDataset(miniCfg.Vocab, miniCfg.MaxSeq, 1).Micros(miniMicros, miniBatch)
	loss, err := pipe.Step(micros, miniSliced, miniScale)
	if err != nil {
		t.Fatal(err)
	}
	serial := nn.BuildGPT(miniCfg)
	serialLoss := SerialStep(serial, micros, miniScale)

	if got := stepDigest(loss, pipe.AllParams()); got != wantPipe {
		t.Errorf("pipelined step digest %#016x, want %#016x", got, wantPipe)
	}
	if got := stepDigest(serialLoss, nn.CollectParams(serial)); got != wantSerial {
		t.Errorf("serial step digest %#016x, want %#016x", got, wantSerial)
	}
}
