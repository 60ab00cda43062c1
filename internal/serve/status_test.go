package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestStatusForError pins the error-to-status contract the guard relies
// on: deadline expiry is the server's fault (504), a client hanging up is
// the client's (499), a typed status error carries its own code, a closed
// batcher is a drain-time 503, and anything else is a malformed request.
// The old code conflated all context errors into one bucket.
func TestStatusForError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"wrapped deadline", fmt.Errorf("predict: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"canceled", context.Canceled, StatusClientClosedRequest},
		{"wrapped canceled", fmt.Errorf("enqueue: %w", context.Canceled), StatusClientClosedRequest},
		{"typed 404", &statusError{status: http.StatusNotFound, msg: "no such model"}, http.StatusNotFound},
		{"wrapped typed 404", fmt.Errorf("classify: %w", &statusError{status: http.StatusNotFound, msg: "x"}), http.StatusNotFound},
		{"batcher closed", errBatcherClosed, http.StatusServiceUnavailable},
		{"wrapped batcher closed", fmt.Errorf("model %q: %w", "lr", errBatcherClosed), http.StatusServiceUnavailable},
		{"plain", errors.New("histogram must not be empty"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := statusForError(tc.err); got != tc.want {
				t.Fatalf("statusForError(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

// TestPanicAfterHeaderSendsNoSecondResponse: a handler that panics after
// committing its header still counts as an error, but the guard must not
// append a 500 error body to the response already under way.
func TestPanicAfterHeaderSendsNoSecondResponse(t *testing.T) {
	s := &Server{
		cfg:      Config{RequestTimeout: time.Second},
		admit:    make(chan struct{}, 1),
		barrier:  NewDrainBarrier(),
		requests: obs.GetCounter("serve.requests"),
		rejected: obs.GetCounter("serve.rejected"),
		errors:   obs.GetCounter("serve.errors"),
		inflight: obs.GetGauge("serve.inflight"),
	}
	h := s.guard("late_panic", func(w http.ResponseWriter, r *http.Request) error {
		w.WriteHeader(http.StatusOK)
		panic("after the header")
	})
	before := s.errors.Value()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("got status %d body %q, want the committed 200 and no error body", rec.Code, rec.Body)
	}
	if got := s.errors.Value(); got != before+1 {
		t.Fatalf("serve.errors moved %d -> %d, want one panic counted", before, got)
	}
}
