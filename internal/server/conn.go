package server

import (
	"bytes"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// The connection loop behind Handler.Serve. One goroutine per connection
// reads into one buffer and, while the bytes are exactly the canonical
// lookup request, serves them itself: the same admit → serveLookup core as
// the net/http route, then status line, headers and the pooled body in one
// writev. Anything else is net/http's (connServer.handOver): the loop never
// answers a request it did not fully recognise, so net/http stays the
// behaviour of record for every malformed, unusual or non-lookup request.
// See DESIGN.md §5 "HTTP serving".

const (
	lookupRequestLine = "POST /v1/lookup HTTP/1.1\r\n"
	// maxLoopHeader bounds the request line and header block the loop will
	// vouch for; a longer one is handed over (net/http allows 1 MiB).
	maxLoopHeader = 8 << 10
	// connBufSize is a connection's read buffer until a request needs
	// more; maxIdleConnBuf is the most it keeps between requests.
	connBufSize    = 4 << 10
	maxIdleConnBuf = 64 << 10
	// maxPostHandlerRead is net/http's maxPostHandlerReadBytes: a handler
	// that replies with this much of the body unread costs the client its
	// connection.
	maxPostHandlerRead = 256 << 10
)

// Connection states, for shutdown: an idle connection (between requests,
// nothing buffered) is closed at once, a busy one after its reply.
const (
	connBusy int32 = iota
	connIdle
	connClosed
)

// conn is one connection the loop owns.
type conn struct {
	s          *connServer
	nc         net.Conn
	state      atomic.Int32
	handedOver bool // nc is net/http's now, and not done's to close

	buf  []byte // read buffer, used to its length; buf[r:w] is unserved
	r, w int
	req  request

	hdr []byte      // the reply's status line and headers
	vec [2][]byte   // hdr and the pooled body,
	out net.Buffers // as one writev
	job lookupJob   // body is a view of buf while a lookup runs

	// The Date header value, reformatted when the second changes.
	date    [len(http.TimeFormat)]byte
	dateSec int64
}

// request is the parse state of the request that starts at buf[r]. Offsets
// are into buf.
type request struct {
	next int // first header line not parsed yet
	body int // first body byte; 0 until the header block is complete
	clen int // Content-Length; -1 until seen

	host, accept, connection bool // headers seen
	binary, close            bool // Accept names the binary frame; Connection: close
}

func (c *conn) serve() {
	defer c.s.done(c)
	// net/http takes a new connection out of idle at once and a keep-alive
	// one when four bytes of the next request are there: a peer that sends
	// fewer and hangs up gets no reply. Of those four it skips the CRs and
	// LFs when the request before was a POST, as every one here is.
	for start := 1; ; start = 4 {
		c.req = request{next: c.r, clen: -1}
		if c.w-c.r < start && !c.awaitRequest(start) {
			return
		}
		if start == 4 {
			for n := 0; n < 4 && (c.buf[c.r] == '\r' || c.buf[c.r] == '\n'); n++ {
				c.r++
			}
			c.req.next = c.r
		}
		// The request's clock starts at its first byte; it is only read
		// for a request that arrives in pieces.
		var t0 time.Time
		for v := c.parse(); v != parsed; v = c.parse() {
			if v == handOver {
				c.s.handOver(c)
				return
			}
			if t0.IsZero() {
				t0 = wallNow()
			}
			if err := c.readMore(t0); err != nil {
				// A peer that stalls past a limit is cut off without a
				// reply, as net/http cuts off a header that stalls. One
				// that hangs up mid-request may be owed a 400: net/http
				// will meet the same end of stream and say so.
				if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
					c.s.handOver(c)
				}
				return
			}
		}
		if !c.reply() {
			return
		}
	}
}

// awaitRequest blocks, idle, until the first start bytes of the next
// request are in buf. It reports false when the connection is finished: the
// peer hung up, the idle limit passed, or a shutdown closed it.
func (c *conn) awaitRequest(start int) bool {
	if c.r == c.w {
		c.r, c.w, c.req.next = 0, 0, 0
		if len(c.buf) > maxIdleConnBuf {
			c.buf = nil
		}
		if cap(c.job.keys) > maxPooledKeys {
			c.job.keys = nil
		}
		if c.buf == nil {
			c.buf = make([]byte, connBufSize)
		}
	}
	// Idle is announced before draining is read and drain reads states
	// after setting it: one of the two sees the other.
	c.state.Store(connIdle)
	if c.s.draining.Load() {
		return false
	}
	if d := c.s.lim.idle(); d > 0 {
		c.nc.SetReadDeadline(wallNow().Add(d))
	}
	for c.w-c.r < start {
		if c.w == len(c.buf) {
			c.makeRoom()
		}
		n, _ := c.nc.Read(c.buf[c.w:])
		if n == 0 {
			break
		}
		c.w += n
	}
	// A failed swap: closeIdle closed the connection.
	return c.state.CompareAndSwap(connIdle, connBusy) && c.w-c.r >= start
}

// readMore reads more of a request whose first bytes arrived at t0, under
// the header limit until the header block is complete and the whole-request
// limit after.
func (c *conn) readMore(t0 time.Time) error {
	if c.w == len(c.buf) {
		c.makeRoom()
	}
	lim := c.s.lim
	d := lim.Read
	if c.req.body == 0 && lim.ReadHeader > 0 {
		d = lim.ReadHeader
	}
	var deadline time.Time
	if d > 0 {
		deadline = t0.Add(d)
	}
	c.nc.SetReadDeadline(deadline)
	n, err := c.nc.Read(c.buf[c.w:])
	c.w += n
	if n > 0 {
		return nil // an error that lasts is met again
	}
	return err
}

// makeRoom makes buf[w:] non-empty: by moving the request to the front when
// that is enough, else in a new buffer — of exactly the request's size once
// Content-Length is known, so a connection never holds more than one header
// block and one body.
func (c *conn) makeRoom() {
	held := c.w - c.r
	want := 2 * held
	if c.req.body > 0 {
		want = c.req.body - c.r + c.req.clen
	}
	into := c.buf
	if want > len(into) {
		into = make([]byte, want)
	}
	copy(into, c.buf[c.r:c.w])
	c.req.next -= c.r
	if c.req.body > 0 {
		c.req.body -= c.r
	}
	c.buf, c.r, c.w = into, 0, held
}

type verdict int

const (
	needMore verdict = iota // the request is incomplete
	parsed                  // a whole canonical lookup is in buf
	handOver                // not the loop's to answer
)

// parse advances over what has arrived of the request at buf[r]: the
// canonical request line, then header lines it can vouch for (headerLine),
// then Content-Length bytes of body. Every line must end in CRLF. It
// resumes where it stopped, so bytes are looked at once however they arrive.
func (c *conn) parse() verdict {
	b, q := c.buf[:c.w], &c.req
	for q.body == 0 {
		i := bytes.IndexByte(b[q.next:], '\n')
		if i < 0 {
			if part := b[c.r:]; q.next == c.r &&
				(len(part) > len(lookupRequestLine) || lookupRequestLine[:len(part)] != string(part)) {
				return handOver // some other request: no need to see its end
			}
			if c.w-c.r >= maxLoopHeader {
				return handOver
			}
			return needMore
		}
		line := b[q.next : q.next+i+1]
		switch {
		case q.next == c.r:
			if string(line) != lookupRequestLine {
				return handOver
			}
		case string(line) == "\r\n":
			if !q.host || q.clen < 0 {
				return handOver
			}
			q.body = q.next + 2
		case !q.headerLine(line):
			return handOver
		}
		q.next += i + 1
		if q.next-c.r > maxLoopHeader {
			return handOver
		}
	}
	if c.w-q.body < q.clen {
		return needMore
	}
	return parsed
}

// headerLine takes one header line, CRLF included, and reports whether the
// loop can vouch for it: a token name directly followed by a colon, a value
// of printable ASCII and tabs, and — for the headers that change what
// net/http does with the request — a value the loop handles identically.
// Host must appear once and look like a host; Content-Length once, digits
// only, within the body limit; Connection once, keep-alive or close; the
// first Accept decides the encoding, as Header.Get reads it. Headers that
// change the framing or the protocol are never the loop's. Names and values
// are known to be ASCII by the time they are compared, so Unicode folding
// cannot make two different headers equal.
func (q *request) headerLine(line []byte) bool {
	n := len(line) - 2
	if n < 0 || line[n] != '\r' {
		return false // bare LF
	}
	colon := bytes.IndexByte(line[:n], ':')
	if colon <= 0 {
		return false // no name; a leading space (obs-fold) lands here too
	}
	name, value := line[:colon], bytes.Trim(line[colon+1:n], " \t")
	for _, ch := range name {
		if !isTokenChar[ch] {
			return false
		}
	}
	for _, ch := range value {
		if (ch < ' ' && ch != '\t') || ch > '~' {
			return false
		}
	}
	switch {
	case bytes.EqualFold(name, []byte("host")):
		if q.host || len(value) == 0 {
			return false
		}
		for _, ch := range value {
			if !isHostChar(ch) {
				return false
			}
		}
		q.host = true
	case bytes.EqualFold(name, []byte("content-length")):
		// Seven digits hold maxLookupBody.
		if q.clen >= 0 || len(value) == 0 || len(value) > 7 {
			return false
		}
		v := 0
		for _, ch := range value {
			if ch < '0' || ch > '9' {
				return false
			}
			v = v*10 + int(ch-'0')
		}
		if v > maxLookupBody {
			return false
		}
		q.clen = v
	case bytes.EqualFold(name, []byte("accept")):
		if !q.accept {
			q.accept = true
			q.binary = bytes.Contains(value, []byte(acceptBinary))
		}
	case bytes.EqualFold(name, []byte("connection")):
		if q.connection {
			return false
		}
		q.connection = true
		if bytes.EqualFold(value, []byte("close")) {
			q.close = true
		} else if !bytes.EqualFold(value, []byte("keep-alive")) {
			return false
		}
	case bytes.EqualFold(name, []byte("transfer-encoding")), bytes.EqualFold(name, []byte("expect")),
		bytes.EqualFold(name, []byte("upgrade")), bytes.EqualFold(name, []byte("trailer")):
		return false
	}
	return true
}

// isTokenChar marks RFC 7230's tchar, what a header name is made of.
var isTokenChar = func() (t [256]bool) {
	for ch := 0; ch < 256; ch++ {
		t[ch] = isAlnum(byte(ch)) || bytes.IndexByte([]byte("!#$%&'*+-.^_`|~"), byte(ch)) >= 0
	}
	return t
}()

func isAlnum(ch byte) bool {
	return ch-'0' <= 9 || ch|0x20-'a' <= 'z'-'a'
}

// isHostChar accepts names, addresses and ports: a subset of what net/http
// accepts in Host, and nothing it rejects.
func isHostChar(ch byte) bool {
	return isAlnum(ch) || ch == '.' || ch == '-' || ch == ':' || ch == '[' || ch == ']' || ch == '_'
}

// reply serves the parsed lookup at buf[r] and writes its response. It
// reports whether the connection goes on to another request.
func (c *conn) reply() bool {
	s, h, q := c.s, c.s.h, &c.req
	end := q.body + q.clen
	closeAfter := q.close
	c.job.body = c.buf[q.body:end]
	bp := respBufPool.Get().(*[]byte)
	rp, ok := h.admit((*bp)[:0])
	if ok {
		rp = h.serveLookup(s.ctx, &c.job, q.binary, (*bp)[:0])
	} else if q.clen >= maxPostHandlerRead {
		closeAfter = true // as net/http, which sheds before the body is read
	}
	c.job.body = nil
	h.http.lookupsDirect.Inc()
	if s.draining.Load() {
		closeAfter = true
	}
	now := wallNow()
	c.appendHeader(rp, now, closeAfter)
	if d := s.lim.LookupSend; d > 0 {
		c.nc.SetWriteDeadline(now.Add(d))
	}
	c.vec = [2][]byte{c.hdr, rp.body}
	c.out = c.vec[:]
	_, err := c.out.WriteTo(c.nc)
	c.vec = [2][]byte{}
	*bp = rp.body
	putRespBuf(bp)
	c.r = end
	return err == nil && !closeAfter
}

// appendHeader builds the status line and headers of rp in c.hdr, in the
// order net/http writes them: the handler's own sorted, then Date, then
// Connection.
func (c *conn) appendHeader(rp reply, now time.Time, closeAfter bool) {
	b := append(c.hdr[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(rp.status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(rp.status)...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(rp.body)), 10)
	b = append(b, "\r\nContent-Type: "...)
	if rp.binary {
		b = append(b, contentTypeBinary[0]...)
	} else {
		b = append(b, contentTypeJSON[0]...)
	}
	if rp.retryAfter {
		b = append(b, "\r\nRetry-After: "...)
		b = append(b, c.s.h.retryAfter[0]...)
	}
	if sec := now.Unix(); sec != c.dateSec {
		c.dateSec = sec
		now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	b = append(b, "\r\nDate: "...)
	b = append(b, c.date[:]...)
	if closeAfter {
		b = append(b, "\r\nConnection: close"...)
	}
	c.hdr = append(b, "\r\n\r\n"...)
}
