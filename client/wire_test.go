package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"autopipe"
)

// TestEncodeStatusContract pins the sentinel → (code, status) mapping — the
// serving half of the wire-error contract.
func TestEncodeStatusContract(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantCode   string
		wantStatus int
	}{
		{"bad config", fmt.Errorf("%w: bad mbs", autopipe.ErrBadConfig), CodeBadConfig, http.StatusBadRequest},
		{"infeasible", fmt.Errorf("%w: no depth fits", autopipe.ErrInfeasible), CodeInfeasible, http.StatusUnprocessableEntity},
		{"oom", fmt.Errorf("%w: stage 2", autopipe.ErrOOM), CodeOOM, http.StatusUnprocessableEntity},
		{"not found", fmt.Errorf("job %q: %w", "job-1", ErrNotFound), CodeNotFound, http.StatusNotFound},
		{"unavailable", fmt.Errorf("queue full: %w", ErrUnavailable), CodeUnavailable, http.StatusServiceUnavailable},
		{"rate limited", fmt.Errorf("admission: %w", ErrRateLimited), CodeRateLimited, http.StatusTooManyRequests},
		{"canceled", fmt.Errorf("wait: %w", context.Canceled), CodeCanceled, 499},
		{"deadline", fmt.Errorf("search: %w", context.DeadlineExceeded), CodeDeadline, http.StatusGatewayTimeout},
		{"internal", errors.New("unclassified"), CodeInternal, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			we, status := Encode(tc.err)
			if we.Code != tc.wantCode {
				t.Errorf("Encode(%v) code = %q, want %q", tc.err, we.Code, tc.wantCode)
			}
			if status != tc.wantStatus {
				t.Errorf("Encode(%v) status = %d, want %d", tc.err, status, tc.wantStatus)
			}
			if we.Message == "" {
				t.Errorf("Encode(%v) lost the message", tc.err)
			}
		})
	}
}

// TestErrorRoundTrip proves Encode → JSON → decode → errors.Is recovers the
// original sentinel for every mapped error — the whole point of typed wire
// errors.
func TestErrorRoundTrip(t *testing.T) {
	sentinels := []error{
		autopipe.ErrBadConfig,
		autopipe.ErrInfeasible,
		autopipe.ErrOOM,
		ErrNotFound,
		ErrUnavailable,
		ErrRateLimited,
		context.Canceled,
		context.DeadlineExceeded,
	}
	for _, sentinel := range sentinels {
		wrapped := fmt.Errorf("daemon-side detail: %w", sentinel)
		we, _ := Encode(wrapped)
		data, err := json.Marshal(we)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var decoded Error
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !errors.Is(&decoded, sentinel) {
			t.Errorf("round-tripped %v does not match its sentinel %v", &decoded, sentinel)
		}
		// The round trip must not over-match: a decoded infeasible is not a
		// bad config and vice versa.
		for _, other := range sentinels {
			if other != sentinel && errors.Is(&decoded, other) {
				t.Errorf("round-tripped %v wrongly matches %v", sentinel, other)
			}
		}
	}

	// Unknown codes degrade to internal, never to a user-input error.
	unknown := &Error{Code: "mystery", Message: "??"}
	if !errors.Is(unknown, autopipe.ErrInternal) {
		t.Errorf("unknown code does not unwrap to ErrInternal")
	}
	if errors.Is(unknown, autopipe.ErrBadConfig) {
		t.Errorf("unknown code wrongly matches ErrBadConfig")
	}
}

// TestSubmitRequestValidate pins the request-shape validation.
func TestSubmitRequestValidate(t *testing.T) {
	prof := &autopipe.StageProfile{Fwd: []float64{1}, Bwd: []float64{2}, Micro: 4}
	payload := &PlanPayload{Model: autopipe.GPT2_345M(), Run: autopipe.Run{MicroBatch: 4, GlobalBatch: 64}, Cluster: autopipe.DefaultCluster()}
	badCluster := *payload
	badCluster.Cluster.Device.FlopsPerSec = -1
	cases := []struct {
		name string
		req  SubmitRequest
		ok   bool
	}{
		{"plan", SubmitRequest{Kind: KindPlan, Plan: payload}, true},
		{"simulate", SubmitRequest{Kind: KindSimulate, Profile: prof}, true},
		{"slice", SubmitRequest{Kind: KindSlice, Profile: prof}, true},
		{"plan missing payload", SubmitRequest{Kind: KindPlan}, false},
		{"plan with profile", SubmitRequest{Kind: KindPlan, Plan: payload, Profile: prof}, false},
		{"plan bad cluster", SubmitRequest{Kind: KindPlan, Plan: &badCluster}, false},
		{"simulate missing profile", SubmitRequest{Kind: KindSimulate}, false},
		{"simulate with plan", SubmitRequest{Kind: KindSimulate, Profile: prof, Plan: payload}, false},
		{"unknown kind", SubmitRequest{Kind: "transmogrify"}, false},
		{"empty kind", SubmitRequest{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate = %v, want nil", err)
			}
			if !tc.ok {
				if !errors.Is(err, autopipe.ErrBadConfig) {
					t.Errorf("Validate = %v, want ErrBadConfig", err)
				}
			}
		})
	}
}

// TestJobErr pins Job.Err: nil unless failed, typed when failed.
func TestJobErr(t *testing.T) {
	if err := (&Job{State: StateDone}).Err(); err != nil {
		t.Errorf("done job Err = %v", err)
	}
	failed := &Job{State: StateFailed, Error: &Error{Code: CodeInfeasible, Message: "no depth fits"}}
	if err := failed.Err(); !errors.Is(err, autopipe.ErrInfeasible) {
		t.Errorf("failed job Err = %v, want ErrInfeasible", err)
	}
	// A failed job with no error document is a daemon bug: internal.
	if err := (&Job{State: StateFailed}).Err(); !errors.Is(err, autopipe.ErrInternal) {
		t.Errorf("failed job without error doc Err = %v, want ErrInternal", err)
	}
}
