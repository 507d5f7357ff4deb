// Package wire defines the binary messages exchanged between a Safe
// Browsing client and server: incremental list downloads (shavar add/sub
// chunks of 32-bit prefixes) and full-hash requests.
//
// The encoding is a compact length-prefixed binary format: a three-byte
// header (magic, version, message type) followed by uvarint-framed fields.
// All decoders enforce hard limits so a malicious peer cannot force
// unbounded allocations.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"sbprivacy/internal/hashx"
)

// Protocol constants.
const (
	Magic   = 0x53 // 'S'
	Version = 1
)

// MsgType identifies a message on the wire.
type MsgType uint8

// Message types.
const (
	MsgDownloadRequest MsgType = iota + 1
	MsgDownloadResponse
	MsgFullHashRequest
	MsgFullHashResponse
	MsgFullHashBatchRequest
	MsgFullHashBatchResponse
	// MsgProbeSegment identifies a probe-log segment file: the standard
	// three-byte header followed by length-prefixed probe records (see
	// probe.go and internal/probestore).
	MsgProbeSegment
	// MsgProbeIndex identifies a probe-segment index sidecar file: the
	// segment's record count, byte extent, and a Bloom filter of its
	// client cookies, so readers can skip segments without a client
	// instead of scanning them (see ProbeIndex and internal/probestore).
	MsgProbeIndex
)

// ChunkType distinguishes additions from removals.
type ChunkType uint8

// Chunk types. Add chunks insert prefixes; sub chunks remove previously
// added prefixes (the dynamics that made Bloom filters unsuitable).
const (
	ChunkAdd ChunkType = iota + 1
	ChunkSub
)

// Decoder limits.
const (
	maxStringLen        = 1024
	maxLists            = 64
	maxChunksPerMsg     = 16384
	maxPrefixesPerChunk = 1 << 21
	maxPrefixesPerReq   = 256
	maxFullHashEntries  = 4096
)

// MaxBatchRequests is the largest number of full-hash requests one
// batch message may carry. Callers with more requests must send several
// frames (HTTPTransport.FullHashesBatch chunks automatically).
const MaxBatchRequests = 64

// maxVarint is the worst-case byte length of one uvarint field, used to
// bound whole-message sizes below.
const maxVarint = binary.MaxVarintLen64

// Upper bounds on the encoded size of each client→server request the
// decoders would accept, derived from the field limits above. HTTP
// servers cap request bodies with these (http.MaxBytesReader) so a
// client cannot stream an unbounded body at a handler: anything larger
// necessarily violates a field limit and would be rejected anyway.
const (
	// MaxDownloadRequestWireBytes bounds an encoded DownloadRequest.
	MaxDownloadRequestWireBytes = 3 + maxVarint + maxStringLen +
		maxVarint + maxLists*(maxVarint+maxStringLen+maxVarint)
	// MaxFullHashRequestWireBytes bounds an encoded FullHashRequest.
	MaxFullHashRequestWireBytes = 3 + maxVarint + maxStringLen +
		maxVarint + maxPrefixesPerReq*hashx.PrefixSize
	// MaxFullHashBatchRequestWireBytes bounds an encoded
	// FullHashBatchRequest.
	MaxFullHashBatchRequestWireBytes = 3 + maxVarint +
		MaxBatchRequests*(MaxFullHashRequestWireBytes-3)
)

// Errors returned by decoders.
var (
	ErrBadMagic   = errors.New("wire: bad magic byte")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrBadType    = errors.New("wire: unexpected message type")
	ErrTooLarge   = errors.New("wire: field exceeds protocol limit")
)

// Chunk is one incremental update unit for a list.
type Chunk struct {
	List     string
	Num      uint32
	Type     ChunkType
	Prefixes []hashx.Prefix
}

// ListState reports, per list, the highest chunk number a client has
// applied; the server responds with everything newer.
type ListState struct {
	List      string
	LastChunk uint32
}

// DownloadRequest asks for incremental updates on a set of lists.
type DownloadRequest struct {
	ClientID string // the Safe Browsing cookie (Section 2.2.3)
	States   []ListState
}

// DownloadResponse carries new chunks and the minimum wait before the
// next poll (the server-imposed query frequency of Section 2.2.1).
type DownloadResponse struct {
	MinWaitSeconds uint32
	Chunks         []Chunk
}

// FullHashRequest sends the 32-bit prefixes that hit the local database —
// the exact information the privacy analysis is about.
type FullHashRequest struct {
	ClientID string
	Prefixes []hashx.Prefix
}

// FullHashEntry is one full digest matching a requested prefix.
type FullHashEntry struct {
	List   string
	Digest hashx.Digest
}

// FullHashResponse returns every full digest matching any requested
// prefix, plus how long the client may cache them.
type FullHashResponse struct {
	CacheSeconds uint32
	Entries      []FullHashEntry
}

// FullHashBatchRequest carries several full-hash requests in one round
// trip, amortizing connection and framing overhead for high-volume
// callers (audits, load generators, proxies multiplexing many clients).
type FullHashBatchRequest struct {
	Requests []FullHashRequest
}

// FullHashBatchResponse carries one response per batched request, in
// request order.
type FullHashBatchResponse struct {
	Responses []FullHashResponse
}

type writer struct {
	w   io.Writer
	err error
	// scratch backs the fixed-size fields (header, uvarint, prefix).
	// Slicing a struct field into the w.Write interface call does not
	// escape the way a local array does, so the per-field encodes stay
	// allocation-free (see TestWireHotPathAllocs).
	scratch [binary.MaxVarintLen64]byte
}

//sbcheck:hotpath
func (e *writer) header(t MsgType) {
	e.scratch[0] = Magic
	e.scratch[1] = Version
	e.scratch[2] = byte(t)
	e.bytes(e.scratch[:3])
}

//sbcheck:hotpath
func (e *writer) bytes(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

//sbcheck:hotpath
func (e *writer) uvarint(v uint64) {
	n := binary.PutUvarint(e.scratch[:], v)
	e.bytes(e.scratch[:n])
}

func (e *writer) str(s string) {
	e.uvarint(uint64(len(s)))
	e.bytes([]byte(s))
}

//sbcheck:hotpath
func (e *writer) prefix(p hashx.Prefix) {
	b := p.Bytes()
	n := copy(e.scratch[:], b[:])
	e.bytes(e.scratch[:n])
}

type reader struct {
	r *bufio.Reader
	// own is the reader's pooled 4 KiB buffer, reset onto the source of
	// each decode; r points at it unless the caller handed in a
	// *bufio.Reader of its own.
	own *bufio.Reader
	// scratch backs the fixed-size reads (header, prefix, digest); a
	// struct field sliced into io.ReadFull does not escape the way a
	// local array does, keeping the per-record decodes allocation-free
	// (see TestWireHotPathAllocs). Sized for the largest fixed field.
	scratch [hashx.DigestSize]byte
}

// readerPool recycles decoders with their buffers, so a decode of a
// message of a few dozen bytes does not build a fresh 4 KiB
// bufio.Reader.
var readerPool = sync.Pool{New: func() any {
	return &reader{own: bufio.NewReaderSize(nil, readerBufSize)}
}}

// readerBufSize is the pooled read buffer's size; it must hold the
// longest string field, which str reads in one Peek.
const readerBufSize = 4096

// newReader takes a decoder from the pool and points it at r. A
// *bufio.Reader is used as is, so a caller reading several messages
// from one stream loses no buffered bytes. Call release when done.
func newReader(r io.Reader) *reader {
	d := readerPool.Get().(*reader)
	if br, ok := r.(*bufio.Reader); ok {
		d.r = br
	} else {
		d.own.Reset(r)
		d.r = d.own
	}
	return d
}

// release returns d to the pool, dropping its reference to the source.
func (d *reader) release() {
	d.own.Reset(nil)
	d.r = nil
	readerPool.Put(d)
}

func (d *reader) header(want MsgType) error {
	if _, err := io.ReadFull(d.r, d.scratch[:3]); err != nil {
		return fmt.Errorf("wire: read header: %w", err)
	}
	if d.scratch[0] != Magic {
		return ErrBadMagic
	}
	if d.scratch[1] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, d.scratch[1])
	}
	if MsgType(d.scratch[2]) != want {
		return fmt.Errorf("%w: got %d, want %d", ErrBadType, d.scratch[2], want)
	}
	return nil
}

func (d *reader) uvarint(limit uint64, what string) (uint64, error) {
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, fmt.Errorf("wire: read %s: %w", what, err)
	}
	if v > limit {
		return 0, fmt.Errorf("%w: %s = %d > %d", ErrTooLarge, what, v, limit)
	}
	return v, nil
}

// str reads a length-prefixed string. The bytes are converted straight
// out of the read buffer, so the string is the only allocation; a
// caller's bufio.Reader too small to hold the string falls back to a
// copy.
func (d *reader) str(what string) (string, error) {
	// The length is read here rather than through uvarint so the error
	// label is only built on failure.
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return "", fmt.Errorf("wire: read %s length: %w", what, err)
	}
	if n > maxStringLen {
		return "", fmt.Errorf("%w: %s length = %d > %d", ErrTooLarge, what, n, maxStringLen)
	}
	if int(n) > d.r.Size() {
		buf := make([]byte, n)
		if _, err := io.ReadFull(d.r, buf); err != nil {
			return "", fmt.Errorf("wire: read %s: %w", what, err)
		}
		return string(buf), nil
	}
	b, err := d.r.Peek(int(n))
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return "", fmt.Errorf("wire: read %s: %w", what, err)
	}
	s := string(b)
	d.r.Discard(len(b)) //nolint:errcheck // the bytes were just peeked
	return s, nil
}

//sbcheck:hotpath
func (d *reader) prefix() (hashx.Prefix, error) {
	if _, err := io.ReadFull(d.r, d.scratch[:hashx.PrefixSize]); err != nil {
		return 0, fmt.Errorf("wire: read prefix: %w", err) //sbcheck:ignore hotalloc cold path: runs once per torn stream, not per record
	}
	return hashx.PrefixFromBytes(d.scratch[:hashx.PrefixSize])
}

//sbcheck:hotpath
func (d *reader) digest() (hashx.Digest, error) {
	var dg hashx.Digest
	if _, err := io.ReadFull(d.r, d.scratch[:hashx.DigestSize]); err != nil {
		return dg, fmt.Errorf("wire: read digest: %w", err) //sbcheck:ignore hotalloc cold path: runs once per torn stream, not per record
	}
	copy(dg[:], d.scratch[:])
	return dg, nil
}

// Encode writes the request to w.
func (m *DownloadRequest) Encode(w io.Writer) error {
	e := &writer{w: w}
	e.header(MsgDownloadRequest)
	e.str(m.ClientID)
	e.uvarint(uint64(len(m.States)))
	for _, s := range m.States {
		e.str(s.List)
		e.uvarint(uint64(s.LastChunk))
	}
	return e.err
}

// DecodeDownloadRequest reads a DownloadRequest from r.
func DecodeDownloadRequest(r io.Reader) (*DownloadRequest, error) {
	d := newReader(r)
	defer d.release()
	if err := d.header(MsgDownloadRequest); err != nil {
		return nil, err
	}
	m := &DownloadRequest{}
	var err error
	if m.ClientID, err = d.str("client id"); err != nil {
		return nil, err
	}
	n, err := d.uvarint(maxLists, "list count")
	if err != nil {
		return nil, err
	}
	m.States = make([]ListState, n)
	for i := range m.States {
		if m.States[i].List, err = d.str("list name"); err != nil {
			return nil, err
		}
		last, err := d.uvarint(1<<32-1, "last chunk")
		if err != nil {
			return nil, err
		}
		m.States[i].LastChunk = uint32(last)
	}
	return m, nil
}

// Encode writes the response to w.
func (m *DownloadResponse) Encode(w io.Writer) error {
	e := &writer{w: w}
	e.header(MsgDownloadResponse)
	e.uvarint(uint64(m.MinWaitSeconds))
	e.uvarint(uint64(len(m.Chunks)))
	for _, c := range m.Chunks {
		e.str(c.List)
		e.uvarint(uint64(c.Num))
		e.uvarint(uint64(c.Type))
		e.uvarint(uint64(len(c.Prefixes)))
		for _, p := range c.Prefixes {
			e.prefix(p)
		}
	}
	return e.err
}

// DecodeDownloadResponse reads a DownloadResponse from r.
func DecodeDownloadResponse(r io.Reader) (*DownloadResponse, error) {
	d := newReader(r)
	defer d.release()
	if err := d.header(MsgDownloadResponse); err != nil {
		return nil, err
	}
	m := &DownloadResponse{}
	wait, err := d.uvarint(1<<32-1, "min wait")
	if err != nil {
		return nil, err
	}
	m.MinWaitSeconds = uint32(wait)
	n, err := d.uvarint(maxChunksPerMsg, "chunk count")
	if err != nil {
		return nil, err
	}
	m.Chunks = make([]Chunk, n)
	for i := range m.Chunks {
		c := &m.Chunks[i]
		if c.List, err = d.str("list name"); err != nil {
			return nil, err
		}
		num, err := d.uvarint(1<<32-1, "chunk num")
		if err != nil {
			return nil, err
		}
		c.Num = uint32(num)
		typ, err := d.uvarint(uint64(ChunkSub), "chunk type")
		if err != nil {
			return nil, err
		}
		if ChunkType(typ) != ChunkAdd && ChunkType(typ) != ChunkSub {
			return nil, fmt.Errorf("wire: invalid chunk type %d", typ)
		}
		c.Type = ChunkType(typ)
		np, err := d.uvarint(maxPrefixesPerChunk, "prefix count")
		if err != nil {
			return nil, err
		}
		c.Prefixes = make([]hashx.Prefix, np)
		for j := range c.Prefixes {
			if c.Prefixes[j], err = d.prefix(); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// The full-hash messages are a few dozen bytes each, so they encode by
// appending to one buffer (AppendBinary, the encoding.BinaryAppender
// shape) instead of streaming field by field through a writer; Encode
// is one Write of that buffer. The download messages keep the
// streaming writer, because a sync response can be megabytes.

// bufPool holds the encode buffers GetBuffer hands out.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxPooledBuf bounds the buffers PutBuffer keeps: a larger one (a big
// batch answer) is left to the collector rather than pinned by the
// pool.
const maxPooledBuf = 64 << 10

// GetBuffer returns an empty encode buffer from a shared pool. Append
// to it, store the grown slice back through the pointer, and hand it
// to PutBuffer once nothing reads the bytes any more.
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer returns a buffer taken with GetBuffer to the pool.
func PutBuffer(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// binaryAppender is the encoding.BinaryAppender method set.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// encodeTo writes m's encoding to w in one Write, through a pooled
// buffer.
func encodeTo(w io.Writer, m binaryAppender) error {
	bp := GetBuffer()
	defer PutBuffer(bp)
	var err error
	if *bp, err = m.AppendBinary(*bp); err != nil {
		return err
	}
	_, err = w.Write(*bp)
	return err
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// appendHeader appends the three-byte message header.
func appendHeader(b []byte, t MsgType) []byte {
	return append(b, Magic, Version, byte(t))
}

// appendStr appends a length-prefixed string.
func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// EncodedSize returns the length of the request's encoding, computed
// from the wire format without encoding it.
func (m *FullHashRequest) EncodedSize() int {
	return 3 + uvarintLen(uint64(len(m.ClientID))) + len(m.ClientID) +
		uvarintLen(uint64(len(m.Prefixes))) + hashx.PrefixSize*len(m.Prefixes)
}

// appendBody appends the header-less request fields.
func (m *FullHashRequest) appendBody(b []byte) []byte {
	b = appendStr(b, m.ClientID)
	b = binary.AppendUvarint(b, uint64(len(m.Prefixes)))
	for _, p := range m.Prefixes {
		b = binary.BigEndian.AppendUint32(b, uint32(p))
	}
	return b
}

// AppendBinary appends the encoded request to b and returns the
// extended slice. With a b whose spare capacity covers EncodedSize it
// allocates nothing.
//
//sbcheck:hotpath
func (m *FullHashRequest) AppendBinary(b []byte) ([]byte, error) {
	b = appendHeader(b, MsgFullHashRequest)
	return m.appendBody(b), nil
}

// Encode writes the request to w in one Write.
func (m *FullHashRequest) Encode(w io.Writer) error {
	return encodeTo(w, m)
}

// fullHashRequestBody reads the header-less request fields into m,
// reusing the capacity of m.Prefixes.
func (d *reader) fullHashRequestBody(m *FullHashRequest) error {
	var err error
	if m.ClientID, err = d.str("client id"); err != nil {
		return err
	}
	n, err := d.uvarint(maxPrefixesPerReq, "prefix count")
	if err != nil {
		return err
	}
	if m.Prefixes == nil || uint64(cap(m.Prefixes)) < n {
		m.Prefixes = make([]hashx.Prefix, n)
	}
	m.Prefixes = m.Prefixes[:n]
	for i := range m.Prefixes {
		if m.Prefixes[i], err = d.prefix(); err != nil {
			return err
		}
	}
	return nil
}

// DecodeFullHashRequest reads a FullHashRequest from r.
func DecodeFullHashRequest(r io.Reader) (*FullHashRequest, error) {
	m := &FullHashRequest{}
	if err := DecodeFullHashRequestInto(r, m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeFullHashRequestInto reads a FullHashRequest from r into m,
// reusing the capacity of m.Prefixes: decoding into a reused m
// allocates only the client id string. On error m holds a partial
// message.
func DecodeFullHashRequestInto(r io.Reader, m *FullHashRequest) error {
	d := newReader(r)
	defer d.release()
	if err := d.header(MsgFullHashRequest); err != nil {
		return err
	}
	return d.fullHashRequestBody(m)
}

// appendBody appends the header-less response fields.
func (m *FullHashResponse) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(m.CacheSeconds))
	b = binary.AppendUvarint(b, uint64(len(m.Entries)))
	for i := range m.Entries {
		b = appendStr(b, m.Entries[i].List)
		b = append(b, m.Entries[i].Digest[:]...)
	}
	return b
}

// AppendBinary appends the encoded response to b and returns the
// extended slice. With a b whose spare capacity covers the encoding it
// allocates nothing.
//
//sbcheck:hotpath
func (m *FullHashResponse) AppendBinary(b []byte) ([]byte, error) {
	b = appendHeader(b, MsgFullHashResponse)
	return m.appendBody(b), nil
}

// Encode writes the response to w in one Write.
func (m *FullHashResponse) Encode(w io.Writer) error {
	return encodeTo(w, m)
}

// fullHashResponseBody reads the header-less response fields into m.
func (d *reader) fullHashResponseBody(m *FullHashResponse) error {
	cache, err := d.uvarint(1<<32-1, "cache seconds")
	if err != nil {
		return err
	}
	m.CacheSeconds = uint32(cache)
	n, err := d.uvarint(maxFullHashEntries, "entry count")
	if err != nil {
		return err
	}
	m.Entries = make([]FullHashEntry, n)
	for i := range m.Entries {
		if m.Entries[i].List, err = d.str("list name"); err != nil {
			return err
		}
		if m.Entries[i].Digest, err = d.digest(); err != nil {
			return err
		}
	}
	return nil
}

// DecodeFullHashResponse reads a FullHashResponse from r. The result
// and everything in it are freshly allocated and owned by the caller.
func DecodeFullHashResponse(r io.Reader) (*FullHashResponse, error) {
	d := newReader(r)
	defer d.release()
	if err := d.header(MsgFullHashResponse); err != nil {
		return nil, err
	}
	m := &FullHashResponse{}
	if err := d.fullHashResponseBody(m); err != nil {
		return nil, err
	}
	return m, nil
}

// errBatchCount reports a batch over MaxBatchRequests.
func errBatchCount(what string, n int) error {
	return fmt.Errorf("%w: batch %s count = %d > %d", ErrTooLarge, what, n, MaxBatchRequests)
}

// AppendBinary appends the encoded batch request to b and returns the
// extended slice. Batches larger than MaxBatchRequests are rejected
// here, where the caller can still react, rather than by the peer's
// decoder.
//
//sbcheck:hotpath
func (m *FullHashBatchRequest) AppendBinary(b []byte) ([]byte, error) {
	if len(m.Requests) > MaxBatchRequests {
		return b, errBatchCount("request", len(m.Requests))
	}
	b = appendHeader(b, MsgFullHashBatchRequest)
	b = binary.AppendUvarint(b, uint64(len(m.Requests)))
	for i := range m.Requests {
		b = m.Requests[i].appendBody(b)
	}
	return b, nil
}

// Encode writes the batch request to w in one Write; see AppendBinary.
func (m *FullHashBatchRequest) Encode(w io.Writer) error {
	return encodeTo(w, m)
}

// DecodeFullHashBatchRequest reads a FullHashBatchRequest from r.
func DecodeFullHashBatchRequest(r io.Reader) (*FullHashBatchRequest, error) {
	m := &FullHashBatchRequest{}
	if err := DecodeFullHashBatchRequestInto(r, m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeFullHashBatchRequestInto reads a FullHashBatchRequest from r
// into m, reusing the capacity of m.Requests and of each request's
// Prefixes. On error m holds a partial message.
func DecodeFullHashBatchRequestInto(r io.Reader, m *FullHashBatchRequest) error {
	d := newReader(r)
	defer d.release()
	if err := d.header(MsgFullHashBatchRequest); err != nil {
		return err
	}
	n, err := d.uvarint(MaxBatchRequests, "batch request count")
	if err != nil {
		return err
	}
	if m.Requests == nil || uint64(cap(m.Requests)) < n {
		m.Requests = make([]FullHashRequest, n)
	}
	m.Requests = m.Requests[:n]
	for i := range m.Requests {
		if err := d.fullHashRequestBody(&m.Requests[i]); err != nil {
			return err
		}
	}
	return nil
}

// AppendBinary appends the encoded batch response to b and returns the
// extended slice.
//
//sbcheck:hotpath
func (m *FullHashBatchResponse) AppendBinary(b []byte) ([]byte, error) {
	if len(m.Responses) > MaxBatchRequests {
		return b, errBatchCount("response", len(m.Responses))
	}
	b = appendHeader(b, MsgFullHashBatchResponse)
	b = binary.AppendUvarint(b, uint64(len(m.Responses)))
	for i := range m.Responses {
		b = m.Responses[i].appendBody(b)
	}
	return b, nil
}

// Encode writes the batch response to w in one Write.
func (m *FullHashBatchResponse) Encode(w io.Writer) error {
	return encodeTo(w, m)
}

// DecodeFullHashBatchResponse reads a FullHashBatchResponse from r.
func DecodeFullHashBatchResponse(r io.Reader) (*FullHashBatchResponse, error) {
	d := newReader(r)
	defer d.release()
	if err := d.header(MsgFullHashBatchResponse); err != nil {
		return nil, err
	}
	n, err := d.uvarint(MaxBatchRequests, "batch response count")
	if err != nil {
		return nil, err
	}
	m := &FullHashBatchResponse{Responses: make([]FullHashResponse, n)}
	for i := range m.Responses {
		if err := d.fullHashResponseBody(&m.Responses[i]); err != nil {
			return nil, err
		}
	}
	return m, nil
}
