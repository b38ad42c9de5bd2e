package ddserver

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
)

// referenceParseValues is the /values parser parseValues replaced:
// strings.Fields, strconv.ParseFloat on each field, then the NaN and
// range check. It is the oracle parseValues must match exactly.
func referenceParseValues(payload string, maxIndexable float64) ([]float64, error) {
	fields := strings.Fields(payload)
	values := make([]float64, 0, len(fields))
	for _, field := range fields {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", field, err)
		}
		if math.IsNaN(v) || math.Abs(v) > maxIndexable {
			return nil, fmt.Errorf("value %q: %w", field, ddsketch.ErrValueOutOfRange)
		}
		values = append(values, v)
	}
	return values, nil
}

// testMaxIndexable is the default mapping's bound, as NewServer reads it.
func testMaxIndexable(t testing.TB) float64 {
	t.Helper()
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return srv.maxIndexable
}

// checkParseValues requires parseValues to agree with the reference
// parser on body: same accept/reject, same error text, bit-identical
// values.
func checkParseValues(t *testing.T, body string, maxIndexable float64) {
	t.Helper()
	want, wantErr := referenceParseValues(body, maxIndexable)
	got, gotErr := parseValues(nil, []byte(body), maxIndexable)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: error %v, reference error %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("body %q: error %q, reference %q", body, gotErr, wantErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("body %q: %d values, reference %d", body, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("body %q: value %d = %v (%#x), reference %v (%#x)", body, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// parseValuesSeeds cover both sides of every fast-path boundary and
// each class of field the strconv fallback must own.
var parseValuesSeeds = []string{
	"",
	"1 2 3",
	"1\r\n2\r\n3\r\n",
	"\t1\t\v2\f 3 ",
	"+0 -0 0 -0.0 +0e5 -0e-5",
	".5 -.5 +.5e1",
	"1. -1. 1.e3",
	"1e22 1e23 -1e-22 1e-23 1E22 4.5e+21",
	"9007199254740991 9007199254740992 9007199254740993",
	"12345678901234567890 123456789012345678901234 0.00000000000000000000001",
	"3.14159265358979323846264338327950288",
	"0x1p3 0X1.8P1 0x10",
	"1_0 0x1_0p0",
	"inf -Inf +infinity nan NaN",
	"1e400 -1e400 1.79e308",
	"1e-400 4.9e-324 2e-324",
	"1e 1e+ 1e- e5 . - +",
	"1..2 1.2.3 --1 +-1",
	"1e5x 12abc",
	"1 2 3　4\u0085" + "5",
	"1 x",
	"\xff 1",
	"1\xe2\x80\x802",
	"0.1 0.2 0.3 123.456e-7 98765.4321e10",
	"1e99999999999 1e-99999999999",
}

// TestParseValuesMatchesReference runs the reference check over large
// bodies the fuzz seeds do not reach: full-precision values, as agents
// format them, and random decimals.
func TestParseValuesMatchesReference(t *testing.T) {
	maxIndexable := testMaxIndexable(t)
	var sb strings.Builder
	for _, v := range datagen.ParetoSeeded(2000, 7) {
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		sb.WriteByte(' ')
	}
	checkParseValues(t, sb.String(), maxIndexable)

	// Random decimals straddling the fast path's limits: 1–21 digits,
	// any dot position, powers of ten from −30 to 30.
	rng := rand.New(rand.NewSource(1))
	sb.Reset()
	for i := 0; i < 20000; i++ {
		digits := []byte(strconv.FormatUint(rng.Uint64(), 10))
		digits = digits[:1+rng.Intn(len(digits))]
		if rng.Intn(4) == 0 {
			digits = append(digits, digits...)
		}
		if dot := rng.Intn(len(digits) + 2); dot <= len(digits) {
			digits = append(digits[:dot:dot], append([]byte{'.'}, digits[dot:]...)...)
		}
		sb.Write(digits)
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, "e%d", rng.Intn(61)-30)
		}
		sb.WriteByte(' ')
	}
	checkParseValues(t, sb.String(), maxIndexable)
}

// FuzzParseValues: on arbitrary bodies the single-pass parser accepts
// and rejects exactly what strings.Fields + strconv.ParseFloat did,
// with the same error text and bit-identical values.
func FuzzParseValues(f *testing.F) {
	for _, body := range parseValuesSeeds {
		f.Add(body)
	}
	maxIndexable := testMaxIndexable(f)
	f.Fuzz(func(t *testing.T, body string) {
		checkParseValues(t, body, maxIndexable)
	})
}

// serve runs one request through h on the calling goroutine, so the
// handler's pool Put and the test's next Get see the same P's cache.
func serve(h http.Handler, method, path, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// sketchBins lists a sketch's bins and statistics for exact comparison.
func sketchBins(s *ddsketch.DDSketch) []float64 {
	sum, _ := s.Sum()
	lo, _ := s.Min()
	hi, _ := s.Max()
	out := []float64{s.Count(), s.ZeroCount(), sum, lo, hi}
	s.ForEach(func(value, count float64) bool {
		out = append(out, value, count)
		return true
	})
	return out
}

// TestIngestPooledBodyNotRetained: /ingest decodes out of a pooled
// buffer that the next request overwrites. After a first sketch is
// ingested, its buffer is scribbled over and a second sketch is
// ingested through it; the aggregate must still hold the first
// sketch's bins exactly, so no decoder kept a slice of the body.
func TestIngestPooledBodyNotRetained(t *testing.T) {
	for _, codec := range ddsketch.Codecs() {
		t.Run(codec.Name(), func(t *testing.T) {
			first, second := sketchOf(t, 1, 2, 3, 500, 1e4), sketchOf(t, 7, 7e3, 7e6)
			firstBytes, err := codec.Encode(first)
			if err != nil {
				t.Fatal(err)
			}
			secondBytes, err := codec.Encode(second)
			if err != nil {
				t.Fatal(err)
			}
			// The reference merges the same payloads, decoded from private
			// copies, straight into a server's aggregate.
			ref, err := NewServer(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, payload := range [][]byte{firstBytes, secondBytes} {
				sk, err := codec.Decode(bytes.Clone(payload))
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.Aggregate().MergeWith(sk); err != nil {
					t.Fatal(err)
				}
			}
			want := sketchBins(ref.Aggregate().Snapshot())

			// sync.Pool may drop a Put (it does so at random under the
			// race detector), so retry until the first body's buffer is
			// actually the one handed back.
			for attempt := 0; ; attempt++ {
				if attempt == 20 {
					t.Skip("pool never returned the first body's buffer")
				}
				srv, err := NewServer(DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				h := srv.Handler()
				if rec := serve(h, http.MethodPost, "/ingest", codec.ContentType(), firstBytes); rec.Code != http.StatusAccepted {
					t.Fatalf("first /ingest: status %d: %s", rec.Code, rec.Body)
				}
				buf := bodyBufs.Get().(*bytes.Buffer)
				// The pooled buffer is Reset, so its whole backing array,
				// first body included, is spare capacity.
				scribble := buf.AvailableBuffer()[:buf.Cap()]
				if len(scribble) < len(firstBytes) || !bytes.Equal(scribble[:len(firstBytes)], firstBytes) {
					putBody(buf)
					continue
				}
				for i := range scribble {
					scribble[i] = 0xff
				}
				putBody(buf)
				if rec := serve(h, http.MethodPost, "/ingest", codec.ContentType(), secondBytes); rec.Code != http.StatusAccepted {
					t.Fatalf("second /ingest: status %d: %s", rec.Code, rec.Body)
				}
				if got := sketchBins(srv.Aggregate().Snapshot()); !slicesEqualBits(got, want) {
					t.Fatalf("aggregate bins %v, want %v", got, want)
				}
				return
			}
		})
	}
}

func slicesEqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// maxPooledCaps drains up to n entries from each pool and reports the
// largest capacity found, putting the entries back.
func maxPooledCaps(n int) (body, values int) {
	var bodies []*bytes.Buffer
	var batches []*[]float64
	for i := 0; i < n; i++ {
		b, v := bodyBufs.Get().(*bytes.Buffer), valueBufs.Get().(*[]float64)
		body, values = max(body, b.Cap()), max(values, cap(*v))
		bodies, batches = append(bodies, b), append(batches, v)
	}
	for i := range bodies {
		bodyBufs.Put(bodies[i])
		valueBufs.Put(batches[i])
	}
	return body, values
}

// TestValuesPoolDropsOversizedBuffers: a maximal /values upload is
// accepted, but neither its body buffer nor its parsed batch stays
// pooled afterwards.
func TestValuesPoolDropsOversizedBuffers(t *testing.T) {
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("1 "), maxIngestBytes/2)
	rec := serve(srv.Handler(), http.MethodPost, "/values", "text/plain", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /values of %d bytes: status %d: %s", len(body), rec.Code, rec.Body)
	}
	if got := srv.Aggregate().Count(); got != maxIngestBytes/2 {
		t.Fatalf("count = %g, want %d", got, maxIngestBytes/2)
	}
	bodyCap, valuesCap := maxPooledCaps(8)
	if bodyCap > maxPooledBody {
		t.Errorf("pool kept a %d-byte body buffer, cap is %d", bodyCap, maxPooledBody)
	}
	if valuesCap > maxPooledValues {
		t.Errorf("pool kept a %d-value batch, cap is %d", valuesCap, maxPooledValues)
	}
}

// TestReadBodyPresizeCapped: Content-Length is only the client's word.
// A request that declares maxIngestBytes but sends a few bytes must not
// get a buffer sized to the declaration.
func TestReadBodyPresizeCapped(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/values", strings.NewReader("1 2 3"))
	req.ContentLength = maxIngestBytes
	body, ok := readBody(httptest.NewRecorder(), req)
	if !ok {
		t.Fatal("readBody refused a short body")
	}
	defer putBody(body)
	if got := body.String(); got != "1 2 3" {
		t.Fatalf("body %q, want %q", got, "1 2 3")
	}
	if body.Cap() > maxPooledBody {
		t.Errorf("declared length %d gave a %d-byte buffer, cap is %d", maxIngestBytes, body.Cap(), maxPooledBody)
	}
}

// TestValuesConcurrentPooledBatches: concurrent /values posts each get
// their own pooled body and batch. Every client sends distinct integer
// values, so any buffer shared between two requests shows as a wrong
// exact count or sum (and, under -race, as a data race).
func TestValuesConcurrentPooledBatches(t *testing.T) {
	ts, _, _ := newTestServer(t)
	const clients, posts, batch = 8, 100, 100
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for p := 0; p < posts; p++ {
				var sb strings.Builder
				for v := 0; v < batch; v++ {
					fmt.Fprintf(&sb, "%d ", 1+(c*posts+p)*batch+v)
				}
				resp, err := http.Post(ts.URL+"/values", "text/plain", strings.NewReader(sb.String()))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("POST /values: status %d", resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	const n = clients * posts * batch
	summary := getJSON(t, ts.URL+"/summary?q=0.5", http.StatusOK)["summary"].(map[string]any)
	if got := summary["count"].(float64); got != n {
		t.Errorf("count = %g, want %d", got, n)
	}
	if got, want := summary["sum"].(float64), float64(n*(n+1)/2); got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
}

// BenchmarkServerValues times one unkeyed POST /values of 500
// full-precision Pareto values through the handler: body read, parse,
// validation, AddBatch and the JSON reply.
func BenchmarkServerValues(b *testing.B) {
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	var sb strings.Builder
	for _, v := range datagen.ParetoSeeded(500, 1) {
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		sb.WriteByte(' ')
	}
	body := []byte(sb.String())
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(h, http.MethodPost, "/values", "text/plain", body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkServerIngest is BenchmarkServerValues' twin for POST
// /ingest: agent sketches of 1,000 span latencies each, built like a
// real agent's (NewCollapsing(0.01, 2048)), alternating the native and
// DataDog wire formats. One op is one sketch through the handler: body
// read, decode, merge into the aggregate.
func BenchmarkServerIngest(b *testing.B) {
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	const agents = 16
	bodies := make([][]byte, agents)
	ctypes := make([]string, agents)
	for i := range bodies {
		codec := ddsketch.NativeCodec
		if i%2 == 1 {
			codec = ddsketch.DataDogCodec
		}
		sk, err := ddsketch.NewCollapsing(0.01, 2048)
		if err != nil {
			b.Fatal(err)
		}
		if err := sk.AddBatch(datagen.SpanSeeded(1000, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
		if bodies[i], err = codec.Encode(sk); err != nil {
			b.Fatal(err)
		}
		ctypes[i] = codec.ContentType()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i % agents
		if rec := serve(h, http.MethodPost, "/ingest", ctypes[a], bodies[a]); rec.Code != http.StatusAccepted {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
