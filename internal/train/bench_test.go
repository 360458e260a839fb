package train

import (
	"testing"

	"autopipe/internal/nn"
)

// BenchmarkPipelineStep times one sliced pipelined GPT-mini step (the
// TestStepDigest shape) on fixed micro-batches, gradients zeroed each time.
func BenchmarkPipelineStep(b *testing.B) {
	pipe, err := NewPipeline(nn.BuildGPT(miniCfg), miniBounds)
	if err != nil {
		b.Fatal(err)
	}
	params := pipe.AllParams()
	micros := NewDataset(miniCfg.Vocab, miniCfg.MaxSeq, 1).Micros(miniMicros, miniBatch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrads(params)
		if _, err := pipe.Step(micros, miniSliced, miniScale); err != nil {
			b.Fatal(err)
		}
	}
}
