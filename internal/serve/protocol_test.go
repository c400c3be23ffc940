package serve_test

import (
	"context"
	"encoding/json"
	"testing"

	"flashextract/internal/serve"
)

// TestDecodeFrames pins the response to frames that do not decode into a
// request, and to the one frame shape a generic decode would reject: an
// unknown field holding a number outside float64 range is skipped, so the
// request is served. The catalog is empty, so list_programs answers
// without a program.
func TestDecodeFrames(t *testing.T) {
	const (
		notJSON   = `"error":{"code":"bad_request","message":"serve: frame is not valid JSON"}}`
		notObject = `"error":{"code":"bad_request","message":"serve: frame is not a JSON object"}}`
		badTypes  = `"error":{"code":"bad_request","message":"serve: frame fields have the wrong types"}}`
	)
	cases := []struct{ frame, want string }{
		{`null`, `{"id":"","ok":false,` + notObject},
		{` null `, `{"id":"","ok":false,` + notObject},
		{`42`, `{"id":"","ok":false,` + notObject},
		{`"scan"`, `{"id":"","ok":false,` + notObject},
		{`[]`, `{"id":"","ok":false,` + notObject},
		{`{not json`, `{"id":"","ok":false,` + notJSON},
		{`{"op":{}}`, `{"id":"","ok":false,` + badTypes},
		{`{"id":8,"op":"scan"}`, `{"id":"","op":"scan","ok":false,` + badTypes},
		{`{"id":"e1","op":7}`, `{"id":"e1","ok":false,` + badTypes},
		// A known field out of range fails both decodes, as before.
		{`{"id":"z0","op":"list_programs","timeout_ms":1e400}`, `{"id":"","ok":false,` + notJSON},
		// An unknown one is skipped by the request decode, so it is served.
		{`{"id":"z1","op":"list_programs","z":1e400}`, `{"id":"z1","op":"list_programs","ok":true}`},
		{`{"id":"z2","op":"list_programs"}`, `{"id":"z2","op":"list_programs","ok":true}`},
	}
	s := newServer(t, t.TempDir(), serve.Options{})
	for _, c := range cases {
		got, err := json.Marshal(s.HandleLine(context.Background(), []byte(c.frame)))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("frame %s:\n got %s\nwant %s", c.frame, got, c.want)
		}
	}
}
