// W3C-style trace context: the fleet-tracing identity that stitches a
// client's span trace, the daemon's span trace, and the access log into one
// timeline. A TraceContext is the (trace id, span id, flags) triple of the
// W3C Trace Context `traceparent` header (version 00); job POSTs and
// store.Remote requests carry it, polynimad joins or starts the trace, and
// every job span is tagged with the 32-hex trace id.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
)

// TraceContext identifies one position in a distributed trace: the
// trace-wide id, the id of the current (parent) span, and the W3C flags
// byte (bit 0 = sampled).
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// FlagSampled is the W3C trace-flags sampled bit.
const FlagSampled = 0x01

// NewTraceContext starts a fresh trace: random trace and span ids, sampled.
func NewTraceContext() TraceContext {
	tc := TraceContext{Flags: FlagSampled}
	rand.Read(tc.TraceID[:])
	rand.Read(tc.SpanID[:])
	return tc
}

// Valid reports whether the context names a real trace position: the W3C
// rules forbid all-zero trace and span ids.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// TraceIDHex renders the 32-hex trace id — the value of the
// X-Polynima-Trace-Id response header and the access log's trace_id field.
func (tc TraceContext) TraceIDHex() string { return hex.EncodeToString(tc.TraceID[:]) }

// SpanIDHex renders the 16-hex span id.
func (tc TraceContext) SpanIDHex() string { return hex.EncodeToString(tc.SpanID[:]) }

// Traceparent renders the context as a version-00 W3C traceparent header
// value: "00-<32 hex trace id>-<16 hex span id>-<2 hex flags>".
func (tc TraceContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", tc.TraceIDHex(), tc.SpanIDHex(), tc.Flags)
}

// Child returns a context in the same trace with a fresh random span id —
// what a server propagating the trace into its own work (or onward to an
// upstream) uses as its position.
func (tc TraceContext) Child() TraceContext {
	child := tc
	rand.Read(child.SpanID[:])
	return child
}

// ParseTraceparent parses a traceparent header value. Unknown future
// versions are accepted if their first two fields parse (per the W3C
// forward-compatibility rule); version "ff", malformed or uppercase hex
// (the W3C fields are lowercase only, so an accepted header re-renders
// exactly), wrong field widths, and all-zero ids are rejected.
func ParseTraceparent(s string) (TraceContext, bool) {
	// version(2) - trace-id(32) - parent-id(16) - flags(2), dash-separated;
	// future versions may append "-..." suffixes.
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	if len(s) > 55 && s[55] != '-' {
		return TraceContext{}, false
	}
	if strings.ContainsAny(s[:55], "ABCDEF") { // hex.DecodeString takes both cases
		return TraceContext{}, false
	}
	ver, err := hex.DecodeString(s[0:2])
	if err != nil || ver[0] == 0xff {
		return TraceContext{}, false
	}
	if ver[0] == 0 && len(s) != 55 {
		return TraceContext{}, false
	}
	var tc TraceContext
	tid, err := hex.DecodeString(s[3:35])
	if err != nil {
		return TraceContext{}, false
	}
	sid, err := hex.DecodeString(s[36:52])
	if err != nil {
		return TraceContext{}, false
	}
	fl, err := hex.DecodeString(s[53:55])
	if err != nil {
		return TraceContext{}, false
	}
	copy(tc.TraceID[:], tid)
	copy(tc.SpanID[:], sid)
	tc.Flags = fl[0]
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}
