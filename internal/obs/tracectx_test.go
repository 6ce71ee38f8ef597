package obs

import (
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatal("fresh trace context not valid")
	}
	hdr := tc.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") {
		t.Fatalf("traceparent %q: bad shape", hdr)
	}
	back, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected", hdr)
	}
	if back != tc {
		t.Fatalf("round trip: got %+v want %+v", back, tc)
	}
}

const (
	goodTraceparent   = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	futureTraceparent = "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"
)

func TestParseTraceparent(t *testing.T) {
	const good = goodTraceparent
	tc, ok := ParseTraceparent(good)
	if !ok {
		t.Fatalf("rejected valid traceparent %q", good)
	}
	if tc.TraceIDHex() != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id %s", tc.TraceIDHex())
	}
	if tc.SpanIDHex() != "b7ad6b7169203331" {
		t.Errorf("span id %s", tc.SpanIDHex())
	}
	if tc.Flags != FlagSampled {
		t.Errorf("flags %02x", tc.Flags)
	}

	bad := []string{
		"",
		"00",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",     // missing flags
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",  // zero span id
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // forbidden version
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01x", // trailing junk, v00
		"zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // non-hex version
		"00-0af7651916cd43dd8448eb211c8031zz-b7ad6b7169203331-01",  // non-hex trace id
		"000af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-011",  // missing dash
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",  // uppercase ids
		"00-0af7651916cd43dd8448eb211c80319C-b7ad6b7169203331-01",  // uppercase trace id digit
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333A-01",  // uppercase span id digit
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0A",  // uppercase flags
		"CC-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // uppercase version
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("accepted invalid traceparent %q", s)
		}
	}

	// A future version with a trailing field parses (forward compatibility).
	future := futureTraceparent
	if _, ok := ParseTraceparent(future); !ok {
		t.Errorf("rejected future-version traceparent %q", future)
	}
}

// FuzzParseTraceparent fuzzes the trace-header parser every job and store
// request goes through. It must report !ok, or a valid context whose
// version-00 rendering reproduces the input's first four fields exactly; a
// version-00 input is exactly those fields, so it re-renders byte for byte.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(goodTraceparent)
	f.Add(futureTraceparent)
	f.Add("00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01")
	f.Add("ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if !tc.Valid() {
			t.Fatalf("%q: accepted an invalid context %+v", s, tc)
		}
		if got := tc.Traceparent(); got[2:] != s[2:55] || (s[:2] == "00" && got != s) {
			t.Fatalf("%q: re-renders as %q", s, got)
		}
	})
}

func TestChildKeepsTraceID(t *testing.T) {
	tc := NewTraceContext()
	child := tc.Child()
	if child.TraceID != tc.TraceID {
		t.Error("child changed the trace id")
	}
	if child.SpanID == tc.SpanID {
		t.Error("child kept the parent span id")
	}
}

func TestTracerTraceContext(t *testing.T) {
	var nilT *Tracer
	nilT.SetTraceContext(NewTraceContext()) // must not panic
	if tc := nilT.TraceContext(); tc.Valid() {
		t.Error("nil tracer returned a valid trace context")
	}

	tr := New()
	if tr.TraceContext().Valid() {
		t.Error("fresh tracer has a trace context before SetTraceContext")
	}
	tc := NewTraceContext()
	tr.SetTraceContext(tc)
	if got := tr.TraceContext(); got != tc {
		t.Fatalf("TraceContext: got %+v want %+v", got, tc)
	}
	// The identity is in the event stream (and thus the Chrome export).
	found := false
	for _, ev := range tr.Events() {
		if ev.Name == "trace-context" {
			for _, a := range ev.Args {
				if a.Key == "trace_id" && a.Val == tc.TraceIDHex() {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("trace-context instant with trace_id arg not recorded")
	}

	// Setting an invalid context is ignored.
	tr.SetTraceContext(TraceContext{})
	if got := tr.TraceContext(); got != tc {
		t.Error("invalid SetTraceContext overwrote the root context")
	}
}
