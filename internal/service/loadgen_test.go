package service

import (
	"testing"

	"autopipe/client"
)

// TestLoadgenConfigsDistinctKeys pins that loadgenConfigs(n) offers n
// different searches, so the "distinct configs" the loadgen reports is the
// traffic it sent. Every configuration must also pass submit validation.
func TestLoadgenConfigsDistinctKeys(t *testing.T) {
	for _, n := range []int{1, 4, 6, 7, 400} {
		keys := make(map[string]bool, n)
		for _, pc := range loadgenConfigs(n) {
			req := client.SubmitRequest{Kind: client.KindPlan, Plan: &client.PlanPayload{Model: pc.model, Run: pc.run, Cluster: pc.cluster}}
			if err := req.Validate(); err != nil {
				t.Fatalf("n=%d: invalid config: %v", n, err)
			}
			key, err := Key(req)
			if err != nil {
				t.Fatalf("n=%d: Key: %v", n, err)
			}
			keys[key] = true
		}
		if len(keys) != n {
			t.Errorf("loadgenConfigs(%d) yields %d distinct keys, want %d", n, len(keys), n)
		}
	}
}
