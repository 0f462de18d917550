package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/faultinject"
	"ltrf/internal/regfile"
)

// FuzzEvalRequest posts arbitrary bodies to /v1/eval. Whatever the body,
// the answer is a client error, a result, or one of the documented
// shedding and deadline states — never a 500 or a panic — and a rejected
// body (400, 413) neither runs a simulation nor records an engine failure.
//
// The server's short DefaultTimeout turns a huge valid budget into a 504;
// the request's own context bounds bodies that ask for a long timeout_ms.
// A recorder observes the status the handler writes even when that
// context fires, which a client of a listening server would not.
func FuzzEvalRequest(f *testing.F) {
	for _, b := range append(invalidEvalBodies, quickEval()) {
		data, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"design":"LTRF","workload":"sgemm","latency_x":1e300}`))
	f.Add([]byte(`{"design":"LTRF","workload":"sgemm","budget":1e15,"timeout_ms":1e6}`))
	f.Add([]byte(`{"design":"LTRF","workload":"sgemm"} trailing`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		// The fault-injection designs this binary registers answer 500 and
		// hang on purpose; their contract is TestEvalPanicIsStructured500's.
		// The server's decoder reads the first JSON value, so this one does.
		var req EvalRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			if d, err := regfile.Lookup(req.Design); err == nil &&
				(d.Name == faultinject.DesignPanic || d.Name == faultinject.DesignHang) {
				t.Skip("fault-injection design")
			}
		}

		eng := exp.NewEngine()
		srv, err := New(Config{Engine: eng, DefaultTimeout: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		r := httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)

		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusUnprocessableEntity, http.StatusTooManyRequests,
			statusClientClosedRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("body %q: status %d: %s", body, w.Code, w.Body.Bytes())
		}
		if w.Code == http.StatusBadRequest || w.Code == http.StatusRequestEntityTooLarge {
			if n := eng.Sims(); n != 0 {
				t.Fatalf("body %q: rejected with %d after %d simulations", body, w.Code, n)
			}
			if n := eng.Failures(); n != 0 {
				t.Fatalf("body %q: rejected with %d after %d engine failures", body, w.Code, n)
			}
		}
	})
}
