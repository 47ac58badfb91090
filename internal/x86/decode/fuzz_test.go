package decode_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mao"
	"mao/internal/x86/decode"
	"mao/internal/x86/encode"
)

// fixtureImages encodes every checked-in .s fixture through the
// existing parse→relax pipeline and returns the raw .text images —
// the canonical byte streams that seed the fuzz corpus.
func fixtureImages(tb testing.TB) [][]byte {
	tb.Helper()
	var images [][]byte
	for _, dir := range []string{"../../../internal/corpus/testdata", "../../../cmd/mao/testdata"} {
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.IsDir() || filepath.Ext(path) != ".s" {
				return nil
			}
			u, err := mao.ParseFile(path)
			if err != nil {
				return nil // non-unit fixtures (e.g. plugin sources) are not seeds
			}
			layout, err := mao.Relax(u)
			if err != nil {
				return nil
			}
			if img, err := layout.Image(u, ".text"); err == nil && len(img) > 0 {
				images = append(images, img)
			}
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	if len(images) == 0 {
		tb.Fatal("no fixture images produced")
	}
	return images
}

// reencodeAt re-encodes a decoded instruction at its original
// position, resolving the placeholder branch label to the recorded
// target and pinning the rel8/rel32 choice to the decoded form.
func reencodeAt(r *decode.Decoded) ([]byte, error) {
	ctx := &encode.Ctx{Addr: int64(r.Off), ForceLong: r.Long}
	if r.IsRel {
		target := r.RelTarget
		ctx.SymAddr = func(string) (int64, bool) { return target, true }
	}
	return encode.Encode(r.Inst, ctx)
}

// FuzzDecodeEncodeRoundtrip is the decode↔encode oracle under
// mutation. For any byte stream that decodes:
//
//   - every decoded instruction must re-encode (decoding implies
//     encodability), and decode(encode(inst)) == inst — the decoder's
//     image is a fixpoint of the encoder;
//   - re-encoding the re-decoded instruction is byte-stable, so
//     encode∘decode reaches its fixpoint in one step (and is the
//     identity on canonical streams, which the corpus seeds are).
//
// Malformed streams must fail with a structured error, never a panic.
func FuzzDecodeEncodeRoundtrip(f *testing.F) {
	for _, img := range fixtureImages(f) {
		f.Add(img)
	}
	f.Add([]byte{0x31, 0xc0, 0xff, 0xc8, 0x75, 0xfc, 0xc3})
	f.Add([]byte{0x66, 0x48, 0x0f, 0x7e, 0xc0})
	f.Add([]byte{0xf0, 0x83, 0x0c, 0x24, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		decs, err := decode.All(data)
		if err != nil {
			return // malformed input; All returning is the no-panic assertion
		}
		for _, r := range decs {
			b, err := reencodeAt(r)
			if err != nil {
				t.Fatalf("offset %#x: decoded %s does not re-encode: %v", r.Off, r.Inst, err)
			}
			r2, err := decode.One(b, r.Off)
			if err != nil {
				t.Fatalf("offset %#x: re-encoding %x of %s does not decode: %v", r.Off, b, r.Inst, err)
			}
			if !reflect.DeepEqual(r2.Inst, r.Inst) {
				t.Fatalf("offset %#x: decode(encode(x)) != x\n  x  = %#v\n got = %#v", r.Off, r.Inst, r2.Inst)
			}
			b2, err := reencodeAt(r2)
			if err != nil {
				t.Fatalf("offset %#x: fixpoint re-encode failed: %v", r.Off, err)
			}
			if string(b2) != string(b) {
				t.Fatalf("offset %#x: encode∘decode not a one-step fixpoint: %x then %x", r.Off, b, b2)
			}
		}
	})
}

// TestCanonicalStreamsRoundtrip asserts the strict identity
// encode(decode(bytes)) == bytes over every corpus fixture image —
// the canonical-stream half of the oracle, deterministic (no fuzzing
// involved).
func TestCanonicalStreamsRoundtrip(t *testing.T) {
	for i, img := range fixtureImages(t) {
		decs, err := decode.All(img)
		if err != nil {
			t.Errorf("image %d: decode: %v", i, err)
			continue
		}
		var rebuilt []byte
		for _, r := range decs {
			b, err := reencodeAt(r)
			if err != nil {
				t.Fatalf("image %d offset %#x: %v", i, r.Off, err)
			}
			rebuilt = append(rebuilt, b...)
		}
		if string(rebuilt) != string(img) {
			t.Errorf("image %d: encode(decode(bytes)) != bytes (%d vs %d bytes)",
				i, len(rebuilt), len(img))
		}
	}
}
