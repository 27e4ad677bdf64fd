package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"sync"

	"maxembed/internal/serving"
)

// Request side of /v1/lookup. The body is read once into a pooled buffer
// and the canonical shape {"keys":[u32,…]} is parsed by scanLookupKeys into
// a pooled key slice; any other body is handed to encoding/json over the
// same bytes, which therefore still decides what is accepted and words
// every error. See DESIGN.md §17.

// maxLookupBody bounds the request body: maxLookupKeys ten-digit keys with
// their commas fit with room to spare. A larger body is answered 413
// before anything is parsed.
const maxLookupBody = 1 << 20

var errBodyTooLarge = errors.New("request body too large")

// lookupJob is one /v1/lookup request's pooled state: the body bytes, the
// parsed keys, and the channel the coalescer answers on (buffered, so the
// coalescer never blocks on a slow or departed client). The handler owns
// the job from decode to reply; the coalescer reads keys and sends on done
// strictly in between. A connection of Serve's loop keeps one job of its
// own for its lifetime, body a view of its read buffer.
type lookupJob struct {
	body []byte
	keys []serving.Key
	done chan lookupOutcome

	// The net/http route's Content-Length header value (Handler.write).
	clen   [1]string
	clenOf int
}

var lookupJobPool = sync.Pool{New: func() any {
	return &lookupJob{done: make(chan lookupOutcome, 1)}
}}

// putLookupJob returns a job to the pool, or drops it when its buffers
// have outgrown the caps (see lease.go).
func putLookupJob(j *lookupJob) {
	if cap(j.body) <= maxPooledBytes && cap(j.keys) <= maxPooledKeys {
		lookupJobPool.Put(j)
	}
}

// readBody reads r's body into buf[:0], growing it as needed, and returns
// errBodyTooLarge as soon as the body is known to exceed maxLookupBody.
func readBody(buf []byte, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxLookupBody {
		return buf, errBodyTooLarge
	}
	// One spare byte lets the read that hits EOF happen without growing.
	buf = slices.Grow(buf[:0], max(int(r.ContentLength), 511)+1)
	for {
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxLookupBody {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
	}
}

// decodeKeys fills j.keys from j.body: the scanner's parse when the body
// has the canonical shape, encoding/json's otherwise.
func (j *lookupJob) decodeKeys() error {
	var ok bool
	if j.keys, ok = scanLookupKeys(j.body, j.keys[:0]); ok {
		return nil
	}
	var req LookupRequest
	err := json.NewDecoder(bytes.NewReader(j.body)).Decode(&req)
	j.keys = req.Keys
	return err
}

func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanLookupKeys parses b as {"keys":[n,…]} with n plain decimal uint32s
// and JSON whitespace anywhere between tokens, appending the keys to dst.
// It reports false ("declined") on anything else it is not certain
// encoding/json reads the same way: other, repeated or escaped field
// names, null, signs, fractions, exponents, leading zeros, out-of-range
// numbers, more than maxLookupKeys keys, truncated input. Like
// json.Decoder it stops at the closing brace and ignores what follows.
func scanLookupKeys(b []byte, dst []serving.Key) ([]serving.Key, bool) {
	i := skipJSONSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return dst, false
	}
	i = skipJSONSpace(b, i+1)
	const field = `"keys"`
	if len(b)-i < len(field) || string(b[i:i+len(field)]) != field {
		return dst, false
	}
	i = skipJSONSpace(b, i+len(field))
	if i == len(b) || b[i] != ':' {
		return dst, false
	}
	i = skipJSONSpace(b, i+1)
	if i == len(b) || b[i] != '[' {
		return dst, false
	}
	i = skipJSONSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			// One number: "0", or a non-zero digit and more digits.
			start, v := i, uint64(0)
			for i < len(b) && b[i]-'0' <= 9 && v <= 1<<32 {
				v = v*10 + uint64(b[i]-'0')
				i++
			}
			if i == start || v >= 1<<32 || (b[start] == '0' && i-start > 1) || len(dst) == maxLookupKeys {
				return dst, false
			}
			dst = append(dst, serving.Key(v))
			i = skipJSONSpace(b, i)
			if i == len(b) {
				return dst, false
			}
			if b[i] == ']' {
				i++
				break
			}
			if b[i] != ',' {
				return dst, false
			}
			i = skipJSONSpace(b, i+1)
		}
	}
	i = skipJSONSpace(b, i)
	return dst, i < len(b) && b[i] == '}'
}
