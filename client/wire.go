// Package client is the public Go API of the autopiped planning service: the
// wire contract (job kinds, request/response documents, typed wire errors)
// and an HTTP client with retry, backoff, and timeout options mirroring the
// Planner's functional-option style.
//
// The wire error model round-trips the repository's typed sentinels: the
// daemon maps each errdefs sentinel to a stable error code and HTTP status
// (ErrBadConfig → 400, ErrInfeasible and ErrOOM → 422), and a decoded
// *client.Error unwraps back to the same sentinel, so
//
//	_, _, err := c.Plan(ctx, model, run, cluster)
//	errors.Is(err, autopipe.ErrInfeasible)
//
// works identically whether the planner ran in-process or behind the daemon.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"autopipe"
)

// Job kinds accepted by POST /v1/jobs.
const (
	// KindPlan runs the full cluster plan: depth choice, balanced
	// partitioning, and micro-batch slicing on the parallel engine.
	KindPlan = "plan"
	// KindSimulate runs the analytic 1F1B simulator on a stage profile.
	KindSimulate = "simulate"
	// KindSlice solves Algorithm 2 on a stage profile.
	KindSlice = "slice"
)

// PlanPayload is the request body of a plan job. Everything that determines
// the resulting Spec is in here — it is exactly the content hashed into the
// job's cache key.
type PlanPayload struct {
	// Model, Run, and Cluster are the same configuration triple
	// Planner.Plan takes.
	Model   autopipe.Model   `json:"model"`
	Run     autopipe.Run     `json:"run"`
	Cluster autopipe.Cluster `json:"cluster"`
	// Budget caps the number of candidate partitions the search may
	// simulate (0 = unlimited). Unlike parallelism it changes which plan a
	// truncated search returns, so it is part of the cache key.
	Budget int `json:"budget,omitempty"`
}

// SubmitRequest is the body of POST /v1/jobs: a kind plus the payload for
// that kind.
type SubmitRequest struct {
	Kind string `json:"kind"`
	// Plan carries the payload of a KindPlan job.
	Plan *PlanPayload `json:"plan,omitempty"`
	// Profile carries the payload of a KindSimulate or KindSlice job.
	Profile *autopipe.StageProfile `json:"profile,omitempty"`
}

// Validate reports the first problem with the request: an unknown kind, a
// missing/mismatched payload, or a semantically invalid configuration (the
// same checks the Planner runs up front). Errors wrap autopipe.ErrBadConfig
// so the daemon maps them to HTTP 400 — an invalid request is rejected at
// submit, before it occupies a queue slot or an engine search.
func (r *SubmitRequest) Validate() error {
	switch r.Kind {
	case KindPlan:
		if r.Plan == nil {
			return fmt.Errorf("%w: submit: kind %q needs a plan payload", autopipe.ErrBadConfig, r.Kind)
		}
		if r.Profile != nil {
			return fmt.Errorf("%w: submit: kind %q does not take a profile payload", autopipe.ErrBadConfig, r.Kind)
		}
		if err := r.Plan.Model.Validate(); err != nil {
			return err
		}
		if err := r.Plan.Run.Validate(); err != nil {
			return err
		}
		if err := r.Plan.Cluster.Validate(); err != nil {
			return err
		}
		if r.Plan.Budget < 0 {
			return fmt.Errorf("%w: submit: search budget must be non-negative, got %d", autopipe.ErrBadConfig, r.Plan.Budget)
		}
	case KindSimulate, KindSlice:
		if r.Profile == nil {
			return fmt.Errorf("%w: submit: kind %q needs a profile payload", autopipe.ErrBadConfig, r.Kind)
		}
		if r.Plan != nil {
			return fmt.Errorf("%w: submit: kind %q does not take a plan payload", autopipe.ErrBadConfig, r.Kind)
		}
		if err := r.Profile.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: submit: unknown kind %q (want %s, %s, or %s)",
			autopipe.ErrBadConfig, r.Kind, KindPlan, KindSimulate, KindSlice)
	}
	return nil
}

// PlanResult is the result document of a finished plan job.
type PlanResult struct {
	// Spec is the complete pipeline plan. The block array is not shipped:
	// it is deterministic from (model, run, cluster) via autopipe.Build.
	Spec *autopipe.Spec `json:"spec"`
}

// SimulateResult is the result document of a simulate job: the analytic
// simulator's scalar outputs (the per-op timeline stays server-side).
type SimulateResult struct {
	// IterTime is the simulated iteration makespan in seconds.
	IterTime float64 `json:"iterTime"`
	// Startup is the pipeline startup overhead in seconds.
	Startup float64 `json:"startup"`
	// Master is the master stage the critical path passes through.
	Master int `json:"master"`
}

// SliceResult is the result document of a slice job.
type SliceResult struct {
	// Plan is the Algorithm 2 decision.
	Plan autopipe.SlicePlan `json:"plan"`
}

// Job states. A job is terminal when its state is StateDone or StateFailed.
const (
	StatePending = "pending"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is the wire view of a submitted job, returned by POST /v1/jobs and
// GET /v1/jobs/{id}.
type Job struct {
	// ID is the daemon-assigned job identifier.
	ID string `json:"id"`
	// Kind is the job kind (plan, simulate, slice).
	Kind string `json:"kind"`
	// State is the lifecycle state (pending, running, done, failed).
	State string `json:"state"`
	// Key is the content address of the request — the cache key. Two jobs
	// with equal keys share one engine search.
	Key string `json:"key,omitempty"`
	// CacheHit reports that the result was served from the plan cache
	// without running the engine.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Shared reports that the job's search was coalesced with an identical
	// in-flight search via singleflight (it waited; it did not search).
	Shared bool `json:"shared,omitempty"`
	// Result holds the kind-specific result document when State is done.
	// Decode it into PlanResult, SimulateResult, or SliceResult by Kind.
	Result json.RawMessage `json:"result,omitempty"`
	// Error holds the typed failure when State is failed.
	Error *Error `json:"error,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (j *Job) Terminal() bool { return j.State == StateDone || j.State == StateFailed }

// Err returns the job's failure as a Go error (nil unless State is failed).
// The returned error unwraps to the original sentinel, so errors.Is works.
func (j *Job) Err() error {
	if j.State != StateFailed {
		return nil
	}
	if j.Error == nil {
		return fmt.Errorf("%w: job %s failed with no error document", autopipe.ErrInternal, j.ID)
	}
	return j.Error
}

// Error codes carried on the wire. Each code corresponds to exactly one
// sentinel (or context error), so the mapping is invertible.
const (
	CodeBadConfig  = "bad_config"
	CodeInfeasible = "infeasible"
	CodeOOM        = "oom"
	CodeInternal   = "internal"
	CodeCanceled   = "canceled"
	CodeDeadline   = "deadline_exceeded"
	CodeNotFound   = "not_found"
	// CodeUnavailable marks a transient daemon condition — a full job queue
	// or a draining shutdown. The client retries it (with backoff and any
	// server-supplied Retry-After).
	CodeUnavailable = "unavailable"
	// CodeRateLimited marks a request shed by the daemon's admission
	// control (token-bucket rate limiter). Retryable, like unavailable, but
	// distinct: a rate-limited daemon is healthy, so the client's circuit
	// breaker must not count it as a failure.
	CodeRateLimited = "rate_limited"
)

// DeadlineHeader carries the client's remaining per-call budget, in integer
// milliseconds, on POST /v1/jobs. The daemon derives the engine context's
// deadline from it, so a caller that has already given up stops burning
// search workers server-side. The client stamps it automatically from the
// request context's deadline (or, absent one, its per-attempt HTTP timeout).
const DeadlineHeader = "X-Autopipe-Deadline-Ms"

// Error is the wire form of a typed failure. It implements error, and
// Unwrap returns the sentinel its code names, so errors.Is(err,
// autopipe.ErrBadConfig) is true on the client exactly when it was true on
// the daemon.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the daemon-side error text (already includes the sentinel's
	// own message, since daemon errors wrap their sentinel).
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Message != "" {
		return e.Message
	}
	return "autopiped: " + e.Code
}

// Unwrap maps the wire code back to its sentinel (or context error), making
// the decoded error errors.Is-compatible with in-process planner errors.
// Unknown codes unwrap to autopipe.ErrInternal: an unrecognized failure from
// the daemon is a contract bug, not user input.
func (e *Error) Unwrap() error {
	switch e.Code {
	case CodeBadConfig:
		return autopipe.ErrBadConfig
	case CodeInfeasible:
		return autopipe.ErrInfeasible
	case CodeOOM:
		return autopipe.ErrOOM
	case CodeCanceled:
		return context.Canceled
	case CodeDeadline:
		return context.DeadlineExceeded
	case CodeNotFound:
		return ErrNotFound
	case CodeUnavailable:
		return ErrUnavailable
	case CodeRateLimited:
		return ErrRateLimited
	default:
		return autopipe.ErrInternal
	}
}

// Client-side sentinels for conditions that have no in-process analogue.
var (
	// ErrNotFound reports a job ID the daemon does not know.
	ErrNotFound = errors.New("job not found")
	// ErrUnavailable reports a transiently overloaded or draining daemon
	// (full queue, shutdown). Safe to retry; the Client does so.
	ErrUnavailable = errors.New("service unavailable")
	// ErrRateLimited reports a request shed by the daemon's token-bucket
	// admission control. Safe to retry after the Retry-After the daemon
	// sends; unlike ErrUnavailable it does not indicate an unhealthy daemon.
	ErrRateLimited = errors.New("rate limited")
	// ErrCircuitOpen reports a call rejected locally by the client's circuit
	// breaker: enough consecutive calls failed with unavailable-class errors
	// that the client is failing fast instead of queueing more retries
	// against a dead daemon. Errors carrying it also match ErrUnavailable.
	ErrCircuitOpen = errors.New("circuit breaker open")
)

// Encode classifies err into its wire form and HTTP status. The mapping is
// the serving half of the round-trip contract:
//
//	ErrBadConfig → 400  bad_config        ErrInfeasible → 422  infeasible
//	ErrOOM       → 422  oom               ErrNotFound   → 404  not_found
//	ErrRateLimited → 429 rate_limited     ErrUnavailable → 503 unavailable
//	context.Canceled → 499 canceled       context.DeadlineExceeded → 504
//	anything else → 500  internal
func Encode(err error) (*Error, int) {
	var code string
	var status int
	switch {
	case errors.Is(err, autopipe.ErrBadConfig):
		code, status = CodeBadConfig, http.StatusBadRequest
	case errors.Is(err, autopipe.ErrInfeasible):
		code, status = CodeInfeasible, http.StatusUnprocessableEntity
	case errors.Is(err, autopipe.ErrOOM):
		code, status = CodeOOM, http.StatusUnprocessableEntity
	case errors.Is(err, ErrNotFound):
		code, status = CodeNotFound, http.StatusNotFound
	case errors.Is(err, ErrRateLimited):
		code, status = CodeRateLimited, http.StatusTooManyRequests
	case errors.Is(err, ErrUnavailable):
		code, status = CodeUnavailable, http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		code, status = CodeCanceled, 499 // client closed request (nginx convention)
	case errors.Is(err, context.DeadlineExceeded):
		code, status = CodeDeadline, http.StatusGatewayTimeout
	default:
		code, status = CodeInternal, http.StatusInternalServerError
	}
	return &Error{Code: code, Message: err.Error()}, status
}
