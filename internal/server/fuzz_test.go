package server

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// referenceCertainRequest is ParseCertainRequest with encoding/json as
// the only decoder.
func referenceCertainRequest(body []byte) (CertainRequest, error) {
	var req CertainRequest
	if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
		return CertainRequest{}, err
	}
	if err := req.check(); err != nil {
		return CertainRequest{}, err
	}
	return req, nil
}

// sameDecode fails t unless decodeRequest and decodeJSON decode body to
// equal values of type T, or fail with the same message.
func sameDecode[T any](t *testing.T, body []byte, members func(*T) []member) {
	t.Helper()
	var got, want T
	gotErr := decodeRequest(body, &got, members(&got))
	wantErr := decodeJSON(bytes.NewReader(body), &want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%T from %q: error %v, encoding/json %v", got, body, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q: %+v, encoding/json %+v", got, body, got, want)
	}
}

// FuzzServerCertainRequest fuzzes the /v1/certain request decoder: for
// arbitrary bytes, ParseCertainRequest must never panic, must agree with
// encoding/json — the same request or the same error message — and a
// request it rejects must map to a 4xx, never a 5xx or a hung handler.
// The store write bodies, which share the fast path, are held to the
// same agreement. Accepted requests are NOT evaluated here (query
// classification is exponential in the query, which is a cost bound,
// not a decoder bug).
func FuzzServerCertainRequest(f *testing.F) {
	f.Add([]byte(`{"query": "R(x | y)", "facts": "R(a | 1)\nR(a | 2)"}`))
	f.Add([]byte(`{"query": "R(x | y)", "database": "people"}`))
	f.Add([]byte(`{"query": "", "facts": ""}`))
	f.Add([]byte(`{"query": "R(x |", "facts": "zzz"}`))
	f.Add([]byte(`{"query": 42}`))
	f.Add([]byte(`{"query": "R(x | y)"}{"trailing": true}`))
	f.Add([]byte(`{"query": "R(x | y)", "unknown": []}`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"query": "R(x | y)", "facts": "R(a | 1)", "database": "both"}`))
	// The fast path's hand-offs: keys encoding/json folds, duplicates,
	// null, \u escapes, raw non-ASCII, invalid UTF-8, control characters,
	// and what follows the object.
	f.Add([]byte(`{"Query":"R(x | y)","facts":"R(a | 1)\n"}`))
	f.Add([]byte(`{"QUERY":"R(x | y)","database":"d"}`))
	f.Add([]byte(`{"query":"R(x | y)","databaſe":"d"}`))
	f.Add([]byte(`{"query":"R(x | y)","query":"S(x | y)","database":"d"}`))
	f.Add([]byte(`{"query":"R(x | y)","database":"d","explain":null}`))
	f.Add([]byte(`{"query":null,"database":"d"}`))
	f.Add([]byte(`{"query":"R(x | y)","facts":"R(é | 'naïve')\n","explain":true}`))
	f.Add([]byte(`{"query":"R(x | y)","facts":"R(a | '\u00e9')"}`))
	f.Add([]byte(`{"query":"R(x | y)","facts":"R(a | '\ud83d\ude00')"}`))
	f.Add([]byte(`{"query":"R(x | y)","facts":"R(a | '\ud83d')"}`))
	f.Add([]byte("{\"query\":\"R(x | y)\",\"facts\":\"R(a | '\xff')\"}"))
	f.Add([]byte("{\"query\":\"R(x | y)\",\"facts\":\"R(a | 1)\nR(a | 2)\"}"))
	f.Add([]byte(`{"query":"R(x | y)","facts":"R(a | \"q\")\t\/\\\b\f\r"}`))
	f.Add([]byte(`{"query":"R(x | y)","facts":"R(a | 1)\x"}`))
	f.Add([]byte(" \t\r\n{\"query\" : \"R(x | y)\" , \"database\" : \"d\" , \"explain\" : false }\n \n"))
	f.Add([]byte(`{"query":"R(x | y)","database":"d"} x`))
	f.Add([]byte(`{"query":"R(x | y)","database":"d"},`))
	f.Add([]byte(`{"query":"R(x | y)","database":"d",}`))
	f.Add([]byte(`{"query":"R(x | y)","database":"d","explain":"true"}`))
	f.Add([]byte(`{"query":"R(x | y)","database":"d","explain":tru}`))
	f.Add([]byte(`{"name":"d","facts":"R(a | 1)\n"}`))
	f.Add([]byte(`{"database":"d","facts":"R(a | 1)\n","declare":[{"name":"S","arity":2,"key":1}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"query":"R(x | y)","facts":"R(a | 1)"`))

	s := New(Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		sameDecode(t, body, (*DBCreateRequest).members)
		sameDecode(t, body, (*DBWriteRequest).members)
		req, err := ParseCertainRequest(body)
		ref, refErr := referenceCertainRequest(body)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("error %v, encoding/json %v\nbody: %q", err, refErr, body)
		}
		if req != ref {
			t.Fatalf("decoded %+v, encoding/json %+v\nbody: %q", req, ref, body)
		}
		if err != nil {
			// The server must turn decode failures into structured 4xx
			// responses, whatever the bytes were.
			r := httptest.NewRequest("POST", "/v1/certain", strings.NewReader(string(body)))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, r)
			if w.Code < 400 || w.Code >= 500 {
				t.Fatalf("undecodable body gave status %d, want 4xx\nbody: %q", w.Code, body)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error response Content-Type = %q", ct)
			}
			if !strings.Contains(w.Body.String(), `"error"`) {
				t.Fatalf("error response lacks structured body: %s", w.Body.String())
			}
			return
		}
		// Decoded requests satisfy the shape invariants.
		if req.Query == "" {
			t.Fatalf("accepted request with empty query: %q", body)
		}
		if (req.Facts == "") == (req.Database == "") {
			t.Fatalf("accepted request with bad facts/database shape: %q", body)
		}
	})
}
