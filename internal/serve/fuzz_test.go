package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzServeRequest posts arbitrary bodies to /v1/evaluate and
// /v1/explain, the endpoints that bound a client's input without a GA
// run behind it. Whatever the body, the daemon must not panic and must
// not answer with a 5xx: every failure a client can cause is a 4xx.
// The handler runs in-process, so a panic fails the target instead of
// being recovered by net/http.
func FuzzServeRequest(f *testing.F) {
	for _, g := range testGenomes(f) {
		body := `{"nw":8,"genome":"` + g + `"}`
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
		f.Add(true, []byte(`{"backend":"crossbar","nw":8,"genome":"`+g+`"}`))
		f.Add(false, []byte(body[:len(body)/2]))
		f.Add(true, []byte(body+body))
	}
	g := testGenomes(f)[0]
	for _, body := range []string{
		`{"nw":8,"genome":"` + g + `","extra":1}`,
		`{"nw":8,"genom":"` + g + `"}`,
		`{"nw":-1,"genome":"` + g + `"}`,
		`{"nw":0,"genome":"` + g + `"}`,
		`{"nw":4096,"genome":"` + g + `"}`,
		`{"nw":1e400,"genome":"` + g + `"}`,
		`{"nw":8,"genome":"` + g + `/10000000"}`,
		`{"nw":8,"genome":"1"}`,
		`{"nw":8,"workload":"nope","genome":"` + g + `"}`,
		`[]`, `null`, ``,
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	s, err := NewServer(Config{NWs: []int{8}})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, explain bool, body []byte) {
		route := "/v1/evaluate"
		if explain {
			route = "/v1/explain"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", route, body, rec.Code, rec.Body.Bytes())
		}
	})
}
