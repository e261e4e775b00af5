package link

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// The server's HTTP/1.1 half: what net/http's conn.serve does for a
// handler that never hijacks, streams or reads a request context,
// without its per-request context, background reader, header clone and
// bufio pool round trips. Refusals, keep-alive and the body rules
// follow net/http's, as TestHTTPServerContract pins; the few places
// where it answers differently are listed there.

// maxHeaderBytes bounds a request head (request line and headers, and
// a chunked body's trailer): net/http's DefaultMaxHeaderBytes plus the
// one 4 KiB read by which its own limit overshoots.
const maxHeaderBytes = http.DefaultMaxHeaderBytes + 4<<10

// maxPostHandlerReadBytes is net/http's: a body the handler left unread
// is drained to keep the connection only when less than this much of
// it is left.
const maxPostHandlerReadBytes = 256 << 10

// rstAvoidanceDelay is how long a connection closed with request bytes
// possibly unread keeps reading (and discarding) after its reply, so the
// peer sees the reply rather than a reset.
const rstAvoidanceDelay = 500 * time.Millisecond

// refusal is a reply sent, in net/http's exact words, to a request the
// handler never sees; the connection closes after it.
type refusal struct {
	status, body string
}

func (r *refusal) Error() string { return r.status }

func statusRefusal(code int, text string) *refusal {
	s := strconv.Itoa(code) + " " + http.StatusText(code) + ": " + text
	return &refusal{s, s}
}

var (
	errBadRequest     = &refusal{"400 Bad Request", "400 Bad Request"}
	errMissingHost    = statusRefusal(400, "missing required Host header")
	errMalformedHost  = statusRefusal(400, "malformed Host header")
	errInvalidName    = statusRefusal(400, "invalid header name")
	errVersion        = statusRefusal(505, "unsupported protocol version")
	errTooLarge       = &refusal{"431 Request Header Fields Too Large", "431 Request Header Fields Too Large"}
	errTransferCoding = &refusal{"501 Not Implemented", "Unsupported transfer encoding"}
	errExpectation    = &refusal{"417 Expectation Failed", ""}

	errLongTrailer = errors.New("link: chunked trailer too long")
)

var (
	continueReply = []byte("HTTP/1.1 100 Continue\r\n\r\n")
	upgradeReply  = []byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + Protocol + "\r\n\r\n")
	chunkedCoding = "chunked"
)

// serveHTTP serves HTTP/1.1 exchanges until the connection must close
// or is upgraded to frames.
func (sc *serverConn) serveHTTP() {
	for sc.nextRequest() {
	}
}

// nextRequest waits for the next request, reads it and answers it. It
// reports whether the connection may carry another; an upgraded
// connection is served to its end first.
func (sc *serverConn) nextRequest() bool {
	if sc.br.Buffered() == 0 {
		sc.nc.SetReadDeadline(time.Now().Add(idleTimeout))
	}
	if !sc.awaitNext() {
		return false
	}
	sc.nc.SetReadDeadline(time.Now().Add(readTimeout))
	req, err := sc.readRequest()
	if err != nil {
		if r, ok := err.(*refusal); ok {
			sc.refuse(r)
		}
		return false // a read error or a timeout: nobody to answer
	}
	if req.Header.Get("Upgrade") == Protocol {
		sc.host = req.Host
		if _, err := sc.nc.Write(upgradeReply); err == nil {
			sc.serveFrames()
		}
		return false
	}
	return sc.exchange(req)
}

// exchange runs the handler on req and sends its reply. It reports
// whether the connection may carry another request.
func (sc *serverConn) exchange(req *http.Request) bool {
	w := &sc.hw
	w.reset(req)
	if !sc.run(w, req) {
		return false
	}
	keep := !req.Close && !w.closeAfter && !sc.s.draining.Load()
	linger := false
	if !sc.body.eof && (!keep || !sc.body.drain()) {
		keep, linger = false, true // what is left of the body stays unread
	}
	out := w.finish(sc, keep)
	if now := time.Now(); sc.wdue.Sub(now) < writeTimeout/2 {
		sc.wdue = now.Add(writeTimeout)
		sc.nc.SetWriteDeadline(sc.wdue)
	}
	if _, err := sc.nc.Write(out); err != nil {
		return false
	}
	if cap(w.out) > keepBuf {
		w.out = nil
	}
	if cap(w.body) > keepBuf {
		w.body = nil
	}
	if cap(sc.line) > keepBuf {
		sc.line = nil
	}
	if linger {
		sc.lingerClose()
	}
	return keep
}

// refuse answers a request the handler never saw and ends the
// connection.
func (sc *serverConn) refuse(r *refusal) {
	out := append(sc.hw.out[:0], "HTTP/1.1 "...)
	out = append(out, r.status...)
	if r == errExpectation {
		out = append(out, "\r\nDate: "...)
		out = append(out, sc.httpDate()...)
		out = append(out, "\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"...)
	} else {
		out = append(out, "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"...)
		out = append(out, r.body...)
	}
	sc.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := sc.nc.Write(out); err == nil {
		sc.lingerClose()
	}
}

// lingerClose half-closes the connection after a reply that may have
// left request bytes unread, then discards what still arrives for up
// to rstAvoidanceDelay: closing a socket with unread input resets it,
// and a reset can overtake the reply. Close interrupts the wait.
func (sc *serverConn) lingerClose() {
	if cw, ok := sc.nc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	sc.nc.SetReadDeadline(time.Now().Add(rstAvoidanceDelay))
	for {
		if _, err := sc.br.Read(sc.scratch[:]); err != nil {
			return
		}
	}
}

// readLine returns the next line of the request head without its line
// ending ("\r\n" or "\n"). The slice is valid until the next read. A
// line longer than the reader's buffer is assembled in sc.line; the
// head as a whole may not pass maxHeaderBytes.
func (sc *serverConn) readLine() ([]byte, error) {
	line, err := sc.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		sc.line = append(sc.line[:0], line...)
		for err == bufio.ErrBufferFull {
			if sc.headLen+len(sc.line) > maxHeaderBytes {
				return nil, errTooLarge
			}
			line, err = sc.br.ReadSlice('\n')
			sc.line = append(sc.line, line...)
		}
		line = sc.line
	}
	sc.headLen += len(line)
	if sc.headLen > maxHeaderBytes {
		return nil, errTooLarge
	}
	if err != nil {
		if err == io.EOF && sc.headLen > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// readRequest parses the next request head off the connection and
// readies its body. Errors are read failures (the connection just
// closes) or a *refusal to send first, in the order net/http checks.
func (sc *serverConn) readRequest() (*http.Request, error) {
	sc.headLen = 0
	line, err := sc.readLine()
	if err != nil {
		return nil, err
	}
	method, rest, ok1 := bytes.Cut(line, []byte{' '})
	uri, proto, ok2 := bytes.Cut(rest, []byte{' '})
	if !ok1 || !ok2 || checkName(method) != nameOK {
		return nil, errBadRequest
	}
	major, minor, ok := parseVersion(proto)
	if !ok {
		return nil, errBadRequest
	}
	rawURI := string(uri)
	target := rawURI
	// CONNECT's target is an authority, not a path (net/http's rule).
	authority := string(method) == "CONNECT" && !strings.HasPrefix(rawURI, "/")
	if authority {
		target = "http://" + rawURI
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return nil, errBadRequest
	}
	if authority {
		u.Scheme = ""
	}
	req := &http.Request{
		Method:     internMethod(method),
		URL:        u,
		Proto:      protoName(major, minor),
		ProtoMajor: major,
		ProtoMinor: minor,
		Header:     make(http.Header, 4),
		RemoteAddr: sc.remote,
		RequestURI: rawURI,
	}
	badName, err := sc.readHeader(req.Header)
	if err != nil {
		return nil, err
	}
	hdr := req.Header
	hosts := hdr["Host"]
	if len(hosts) > 1 {
		return nil, errBadRequest
	}
	if req.Host = u.Host; req.Host == "" && len(hosts) == 1 {
		req.Host = hosts[0]
	}
	if p := hdr["Pragma"]; len(p) > 0 && p[0] == "no-cache" && len(hdr["Cache-Control"]) == 0 {
		hdr["Cache-Control"] = []string{"no-cache"}
	}
	http11 := major > 1 || (major == 1 && minor >= 1)
	conn := hdr["Connection"]
	req.Close = hasToken(conn, "close") || (!http11 && !hasToken(conn, "keep-alive"))
	if err := sc.readTransfer(req, http11); err != nil {
		return nil, err
	}
	switch {
	case major != 1:
		return nil, errVersion
	case http11 && len(hosts) == 0 && req.Method != "CONNECT":
		return nil, errMissingHost
	case len(hosts) == 1 && !validHost(hosts[0]):
		return nil, errMalformedHost
	case badName:
		return nil, errInvalidName
	}
	delete(hdr, "Host")
	if expect := hdr["Expect"]; len(expect) > 0 {
		if !hasToken(expect[:1], "100-continue") {
			return nil, errExpectation
		}
		sc.body.cont = http11 && req.ContentLength != 0
	}
	return req, nil
}

// readHeader reads header lines into h up to the blank line that ends
// the head. Names and values are interned per connection and checked
// the way net/textproto checks them: a name with a byte outside the
// token set or a value with a control byte is refused at once, and a
// name with a space is reported in badName, which net/http refuses
// only after the rest of the request parsed. Obsolete line folding is
// refused too.
func (sc *serverConn) readHeader(h http.Header) (badName bool, err error) {
	var strs []string // backs single-valued headers, eight to an allocation
	for {
		line, err := sc.readLine()
		if err != nil {
			return false, err
		}
		if len(line) == 0 {
			return badName, nil
		}
		if line[0] == ' ' || line[0] == '\t' {
			return false, errBadRequest
		}
		name, value, ok := bytes.Cut(line, []byte{':'})
		if !ok {
			return false, errBadRequest
		}
		i := sc.lookup(name)
		if i < 0 {
			switch checkName(name) {
			case nameBad:
				return false, errBadRequest
			case nameSpaced:
				badName = true
			}
			i = sc.intern(name)
		}
		e := &sc.names[i]
		value = trimSpace(value)
		if e.last != string(value) {
			for _, c := range value {
				if !validValueByte(c) {
					return false, errBadRequest
				}
			}
			e.last = string(value)
		}
		if vs := h[e.canon]; vs != nil {
			h[e.canon] = append(vs, e.last)
			continue
		}
		if len(strs) == cap(strs) {
			strs = make([]string, 0, 8)
		}
		strs = append(strs, e.last)
		h[e.canon] = strs[len(strs)-1 : len(strs) : len(strs)]
	}
}

// readTransfer applies net/http's body framing rules to req: a
// Transfer-Encoding must be exactly "chunked" (HTTP/1.1 only; HTTP/1.0
// ignores it), repeated Content-Length values must agree, and — unlike
// net/http, which lets chunked win — a request framed both ways is
// refused.
func (sc *serverConn) readTransfer(req *http.Request, http11 bool) error {
	hdr := req.Header
	te, chunked := hdr["Transfer-Encoding"]
	if chunked {
		delete(hdr, "Transfer-Encoding")
		if !http11 {
			chunked = false
		} else if len(te) != 1 || !equalFold(te[0], chunkedCoding) {
			return errTransferCoding
		}
	}
	var n int64
	if cls := hdr["Content-Length"]; len(cls) > 0 {
		// Values arrive trimmed, so agreeing copies are equal strings.
		for _, cl := range cls[1:] {
			if cl != cls[0] {
				return errBadRequest
			}
		}
		if len(cls) > 1 {
			hdr["Content-Length"] = cls[:1:1]
		}
		v, err := strconv.ParseUint(cls[0], 10, 63)
		if err != nil {
			return errBadRequest
		}
		if chunked {
			return errBadRequest
		}
		n = int64(v)
	}
	b := &sc.body
	*b = reqBody{sc: sc, n: n}
	switch {
	case chunked:
		req.ContentLength = -1
		req.TransferEncoding = []string{chunkedCoding}
		b.chunked = httputil.NewChunkedReader(sc.br)
		req.Body = b
	case n > 0:
		req.ContentLength = n
		req.Body = b
	default:
		b.eof = true
		req.Body = http.NoBody
	}
	return nil
}

// reqBody is a request's body as the handler reads it, straight off
// the connection's reader: a Content-Length body's remaining bytes, or
// a chunked body through its decoder. A 100 Continue owed to the client
// goes out on the first read.
type reqBody struct {
	sc      *serverConn
	n       int64     // bytes left of a Content-Length body
	chunked io.Reader // a chunked body's decoder; nil otherwise
	cont    bool      // a 100 Continue is owed before the first read
	eof     bool      // read to its end (trailer included)
	closed  bool
	err     error // sticky read failure
}

func (b *reqBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	return b.read(p)
}

func (b *reqBody) read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.eof {
		return 0, io.EOF
	}
	sc := b.sc
	if b.cont {
		b.cont = false
		if _, err := sc.nc.Write(continueReply); err != nil {
			b.err = err
			return 0, err
		}
	}
	if b.chunked != nil {
		n, err := b.chunked.Read(p)
		switch {
		case err == io.EOF:
			if err = sc.skipTrailer(); err != nil {
				b.err = err
				return n, err
			}
			b.eof = true
			return n, io.EOF
		case err != nil:
			b.err = err
		}
		return n, err
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := sc.br.Read(p)
	b.n -= int64(n)
	if b.n == 0 {
		b.eof = true
		return n, io.EOF
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		b.err = err
	}
	return n, err
}

func (b *reqBody) Close() error {
	b.closed = true
	return nil
}

// drain reads what the handler left of the body, so the connection can
// carry the next request, and reports whether that worked: false when
// more than maxPostHandlerReadBytes is left, the client still waits for
// a 100 Continue it never got, or the body cannot be read to its end.
func (b *reqBody) drain() bool {
	if b.eof {
		return true
	}
	if b.cont || b.err != nil || (b.chunked == nil && b.n >= maxPostHandlerReadBytes) {
		return false
	}
	for total := 0; total <= maxPostHandlerReadBytes; {
		n, err := b.read(b.sc.scratch[:])
		total += n
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
	}
	return false
}

// skipTrailer reads a chunked body's trailer, by net/http's rules: an
// empty one is a lone CRLF; any other must end with a blank CRLF line
// within the reader's buffer and parse as a MIME header. The fields are
// dropped (no handler reads Request.Trailer).
func (sc *serverConn) skipTrailer() error {
	buf, err := sc.br.Peek(2)
	if string(buf) == "\r\n" {
		sc.br.Discard(2)
		return nil
	}
	if len(buf) < 2 {
		return io.ErrUnexpectedEOF
	}
	if err != nil {
		return err
	}
	for n := 4; ; n++ {
		buf, err := sc.br.Peek(n)
		if bytes.HasSuffix(buf, []byte("\r\n\r\n")) {
			break
		}
		if err != nil {
			return errLongTrailer
		}
	}
	_, err = textproto.NewReader(sc.br).ReadMIMEHeader()
	return err
}

// httpWriter is the connection's reusable http.ResponseWriter. Like
// net/http's it snapshots the header map at WriteHeader (the headers
// are encoded then), and the whole reply is buffered: finish adds Date,
// a sniffed Content-Type, Content-Length and Connection, and the reply
// goes out in one Write.
type httpWriter struct {
	header http.Header
	out    []byte // status line and headers, then the whole reply
	body   []byte
	status int
	wrote  bool
	http10 bool
	head   bool // a HEAD request: the body is counted, not sent

	hasType, hasDate bool
	length           string // a HEAD reply's Content-Length, as the handler set it
	closeAfter       bool   // the handler's Connection header says close
}

func (w *httpWriter) reset(req *http.Request) {
	if w.header == nil {
		w.header = make(http.Header)
	}
	clear(w.header)
	w.out, w.body = w.out[:0], w.body[:0]
	w.status, w.wrote = 0, false
	w.http10 = req.ProtoMinor == 0 && req.ProtoMajor == 1
	w.head = req.Method == http.MethodHead
	w.hasType, w.hasDate, w.length, w.closeAfter = false, false, "", false
}

func (w *httpWriter) Header() http.Header { return w.header }

func (w *httpWriter) WriteHeader(status int) {
	if status < 100 || status > 999 {
		panic("invalid WriteHeader code " + strconv.Itoa(status))
	}
	if w.wrote || status < 200 {
		return // a second call, or an informational status nobody sends here
	}
	w.wrote, w.status = true, status
	if w.http10 {
		w.out = append(w.out[:0], "HTTP/1.0 "...)
	} else {
		w.out = append(w.out[:0], "HTTP/1.1 "...)
	}
	w.out = strconv.AppendInt(w.out, int64(status), 10)
	w.out = append(w.out, ' ')
	if text := http.StatusText(status); text != "" {
		w.out = append(w.out, text...)
	} else {
		w.out = append(w.out, "status code "...)
		w.out = strconv.AppendInt(w.out, int64(status), 10)
	}
	w.out = append(w.out, "\r\n"...)
	for name, values := range w.header {
		switch name {
		case "Content-Length":
			if w.head && len(values) > 0 {
				w.length = values[0]
			}
			continue
		case "Transfer-Encoding", "Trailer":
			continue
		case "Connection":
			w.closeAfter = hasToken(values, "close")
			continue
		case "Content-Type":
			w.hasType = true
		case "Date":
			w.hasDate = true
		}
		if checkName(name) != nameOK {
			continue // net/http drops what it cannot send, too
		}
		for _, v := range values {
			w.out = append(w.out, name...)
			w.out = append(w.out, ": "...)
			w.out = appendValue(w.out, v)
			w.out = append(w.out, "\r\n"...)
		}
	}
}

func (w *httpWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// finish completes the reply and returns it: keep says whether the
// connection stays open after it.
func (w *httpWriter) finish(sc *serverConn, keep bool) []byte {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	out := w.out
	if !w.hasDate {
		out = append(out, "Date: "...)
		out = append(out, sc.httpDate()...)
		out = append(out, "\r\n"...)
	}
	withBody := bodyAllowed(w.status)
	if withBody && !w.hasType && len(w.body) > 0 {
		out = append(out, "Content-Type: "...)
		out = append(out, http.DetectContentType(w.body)...)
		out = append(out, "\r\n"...)
	}
	switch {
	case !withBody:
	case w.head && w.length != "":
		out = append(out, "Content-Length: "...)
		out = append(out, w.length...)
		out = append(out, "\r\n"...)
	case !w.head || len(w.body) > 0:
		out = append(out, "Content-Length: "...)
		out = strconv.AppendInt(out, int64(len(w.body)), 10)
		out = append(out, "\r\n"...)
	}
	switch {
	case !keep && !w.http10:
		out = append(out, "Connection: close\r\n"...)
	case keep && w.http10:
		out = append(out, "Connection: keep-alive\r\n"...)
	}
	out = append(out, "\r\n"...)
	if withBody && !w.head {
		out = append(out, w.body...)
	}
	w.out = out
	return out
}

// httpDate is the Date header's value, formatted once per second.
func (sc *serverConn) httpDate() []byte {
	now := time.Now()
	if s := now.Unix(); s != sc.dateSec || sc.date == nil {
		sc.dateSec = s
		sc.date = now.UTC().AppendFormat(sc.date[:0], http.TimeFormat)
	}
	return sc.date
}

func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// appendValue appends a header value with any CR or LF turned into a
// space, as net/http sends it.
func appendValue(dst []byte, v string) []byte {
	start := len(dst)
	dst = append(dst, v...)
	for i := start; i < len(dst); i++ {
		if dst[i] == '\r' || dst[i] == '\n' {
			dst[i] = ' '
		}
	}
	return dst
}

func parseVersion(p []byte) (major, minor int, ok bool) {
	switch string(p) {
	case "HTTP/1.1":
		return 1, 1, true
	case "HTTP/1.0":
		return 1, 0, true
	}
	return http.ParseHTTPVersion(string(p))
}

func protoName(major, minor int) string {
	switch {
	case major == 1 && minor == 1:
		return "HTTP/1.1"
	case major == 1 && minor == 0:
		return "HTTP/1.0"
	}
	return "HTTP/" + strconv.Itoa(major) + "." + strconv.Itoa(minor)
}

// hasToken reports whether any comma-separated element of values is
// token, compared ASCII case-insensitively.
func hasToken(values []string, token string) bool {
	for _, v := range values {
		for v != "" {
			elem, rest, _ := strings.Cut(v, ",")
			if equalFold(trimSpace(elem), token) {
				return true
			}
			v = rest
		}
	}
	return false
}

// equalFold is ASCII case-insensitive equality.
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		x, y := a[i], b[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// trimSpace trims spaces and tabs, HTTP's optional whitespace.
func trimSpace[T string | []byte](b T) T {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// The verdicts checkName gives a header name (or a method: a token).
const (
	nameOK     = iota
	nameSpaced // token bytes and at least one space
	nameBad    // empty, or a byte outside the token set
)

func checkName[T string | []byte](name T) int {
	if len(name) == 0 {
		return nameBad
	}
	verdict := nameOK
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c == ' ':
			verdict = nameSpaced
		case !isToken(c):
			return nameBad
		}
	}
	return verdict
}

// isToken reports whether c may appear in an RFC 9110 token.
func isToken(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	switch c {
	case '!', '#', '$', '%', '&', '\'', '*', '+', '-', '.', '^', '_', '`', '|', '~':
		return true
	}
	return false
}

// validValueByte is net/textproto's rule: any byte but the controls,
// horizontal tab and obs-text allowed.
func validValueByte(c byte) bool {
	return c == '\t' || (c >= 0x20 && c != 0x7f)
}

// validHost is net/http's lenient Host check: no byte that cannot
// appear in a host, a port or an IPv6 literal.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		c := h[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
			continue
		}
		switch c {
		case '!', '$', '%', '&', '(', ')', '*', '+', ',', '-', '.', ':', ';', '=', '[', '\'', ']', '_', '~':
			continue
		}
		return false
	}
	return true
}
