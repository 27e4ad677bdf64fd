package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// jsonLookupKeys is the decoder the handler used before the scanner, and
// still uses for every body the scanner declines.
func jsonLookupKeys(b []byte) ([]uint32, error) {
	var req LookupRequest
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req.Keys, err
}

// TestScanLookupKeysCanonical: the scanner takes the shapes clients send,
// so the fallback stays the rare path.
func TestScanLookupKeysCanonical(t *testing.T) {
	for body, want := range map[string][]uint32{
		`{"keys":[1,2,3]}`:                        {1, 2, 3},
		`{"keys":[0]}`:                            {0},
		`{"keys":[4294967295,0,10]}`:              {4294967295, 0, 10},
		`{"keys":[]}`:                             {},
		" {\n\t\"keys\" : [ 7 ,\r\n 42 ] } \n":    {7, 42},
		`{"keys":[5]} trailing bytes are ignored`: {5},
	} {
		got, ok := scanLookupKeys([]byte(body), nil)
		if !ok || !slices.Equal(got, want) {
			t.Errorf("%q: got %v ok=%v, want %v", body, got, ok, want)
		}
	}
	// More keys than a lookup may carry: declined, so encoding/json counts
	// them for the error text.
	many := []byte(`{"keys":[` + strings.Repeat("1,", maxLookupKeys) + `1]}`)
	if _, ok := scanLookupKeys(many, nil); ok {
		t.Errorf("%d keys accepted", maxLookupKeys+1)
	}
}

// FuzzDecodeLookupKeys is the differential: whatever the body, the scanner
// either declines or returns exactly the keys encoding/json produces.
func FuzzDecodeLookupKeys(f *testing.F) {
	for _, s := range []string{
		`{"keys":[1,2,3]}`, " {\n\t\"keys\" :\r [ 1 , 2 ] } ", `{"keys":[]}`, `{"keys":[ ]}`,
		`{"keys":[4294967295]}`, `{"keys":[4294967296]}`, `{"keys":[99999999999999999999999]}`,
		`{"keys":[-0]}`, `{"keys":[-1]}`, `{"keys":[1e3]}`, `{"keys":[1.0]}`, `{"keys":[01]}`, `{"keys":[00]}`,
		`{"keys":[1,]}`, `{"keys":[,1]}`, `{"keys":[1 2]}`, `{"keys":[1,2]`, `{"keys":[1,2`, `{"keys":[1,2]]`,
		`{"keys":[1],"keys":[2]}`, `{"keys":[1],"other":3}`, `{"other":3,"keys":[1]}`, `{"Keys":[1]}`, `{"KEYS":[1]}`,
		`{"keys":[1]}`, `{"keys":null}`, `{"keys":[null]}`, `{"keys":["1"]}`, `{"keys":1}`, `{"keys":{}}`,
		`"keys"`, `{}`, `[]`, `null`, ``, ` `, `{`, `{"keys"`, `{"keys":`, `{"keys":[`, `{"keys":[1`,
		`{"keys":[1]} garbage`, `{"keys":[1]}{"keys":[2]}`, `{"keys":[1]}}`, "\ufeff{\"keys\":[1]}", "{\"keys\":[1\x00]}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := scanLookupKeys(body, nil)
		if !ok {
			return
		}
		want, err := jsonLookupKeys(body)
		if err != nil {
			t.Fatalf("scanner accepted %q as %v, encoding/json rejects it: %v", body, got, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%q: scanner %v, encoding/json %v", body, got, want)
		}
	})
}

// TestDecodeKeysFallbackKeepsErrors: bodies the scanner declines get the
// status and the error text encoding/json has always given them.
func TestDecodeKeysFallbackKeepsErrors(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	h := New(s.eng, s.dev, WithoutCoalescing())
	for _, body := range []string{
		``, `{"keys":[1,]}`, `{"keys":[-1]}`, `{"keys":[4294967296]}`, `{"keys":"x"}`, `{"keys":[1.5]}`, `nonsense`,
	} {
		_, err := jsonLookupKeys([]byte(body))
		if err == nil {
			t.Fatalf("%q: oracle accepts", body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lookup", strings.NewReader(body)))
		var e map[string]string
		if json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusBadRequest || e["error"] != "invalid JSON: "+err.Error() {
			t.Errorf("%q: status %d error %q, want 400 %q", body, rec.Code, e["error"], "invalid JSON: "+err.Error())
		}
	}
	// Accepted by encoding/json only: case-folded field, a later duplicate.
	for body, want := range map[string]int{
		`{"KEYS":[1,2]}`: 2, `{"keys":[9],"keys":[1,2,3]}`: 3, `{"x":0,"keys":[4]}`: 1,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lookup", strings.NewReader(body)))
		var lr LookupResponse
		if json.Unmarshal(rec.Body.Bytes(), &lr); rec.Code != http.StatusOK || len(lr.Embeddings) != want {
			t.Errorf("%q: status %d, %d embeddings, want 200 with %d", body, rec.Code, len(lr.Embeddings), want)
		}
	}
	// Too many keys keeps its count in the message.
	many := `{"keys":[` + strings.Repeat("1,", maxLookupKeys) + `1]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lookup", strings.NewReader(many)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too many keys: 65537 ") {
		t.Errorf("%d keys: status %d body %s", maxLookupKeys+1, rec.Code, rec.Body)
	}
}

// TestLookupBodyLimit: a body one byte over maxLookupBody is answered 413
// before parsing, with or without a Content-Length; one exactly at the
// limit is served.
func TestLookupBodyLimit(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	h := New(s.eng, s.dev, WithoutCoalescing())
	const head, tail = `{"keys":[1,2,3`, `]}`
	body := func(n int) string { return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail }
	post := func(r io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lookup", r))
		return rec
	}
	// io.MultiReader hides the length from NewRequest: ContentLength −1,
	// as for a chunked upload.
	if rec := post(strings.NewReader(body(maxLookupBody))); rec.Code != http.StatusOK {
		t.Errorf("body at the limit: status %d %s", rec.Code, rec.Body)
	}
	if rec := post(io.MultiReader(strings.NewReader(body(maxLookupBody)))); rec.Code != http.StatusOK {
		t.Errorf("unsized body at the limit: status %d %s", rec.Code, rec.Body)
	}
	if rec := post(strings.NewReader(body(maxLookupBody + 1))); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("body one byte over: status %d", rec.Code)
	}
	if rec := post(io.MultiReader(strings.NewReader(body(maxLookupBody + 1)))); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("unsized body one byte over: status %d", rec.Code)
	}
	// The case that motivated the bound: an endless key list never reaches
	// the parser, let alone grows a key slice.
	huge := io.MultiReader(strings.NewReader(`{"keys":[1`), strings.NewReader(strings.Repeat(",1", 4<<20)))
	if rec := post(huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("8 MiB key list: status %d", rec.Code)
	}
}

// codecBody is the decoder benchmark's request: codecKeys keys as the repo
// benchmark's load generator writes them.
func codecBody(t testing.TB) []byte {
	keys := make([]uint32, codecKeys)
	for i := range keys {
		keys[i] = uint32(i) * 104729 % 1600000
	}
	b, err := json.Marshal(LookupRequest{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeLookupKeysZeroAllocs: a pooled job decodes a canonical body
// without allocating.
func TestDecodeLookupKeysZeroAllocs(t *testing.T) {
	job := &lookupJob{body: codecBody(t)}
	if err := job.decodeKeys(); err != nil || len(job.keys) != codecKeys {
		t.Fatalf("decode: %d keys, err %v", len(job.keys), err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := job.decodeKeys(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decodeKeys allocates %.1f/op, want 0", n)
	}
}

func BenchmarkDecodeLookupKeys(b *testing.B) {
	job := &lookupJob{body: codecBody(b)}
	if err := job.decodeKeys(); err != nil { // size the key slice, as a pooled job's is
		b.Fatal(err)
	}
	b.SetBytes(int64(len(job.body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := job.decodeKeys(); err != nil {
			b.Fatal(err)
		}
	}
}
