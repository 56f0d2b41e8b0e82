package simimg

import (
	"bytes"
	"fmt"
	"testing"
)

func TestWritePGMEncoding(t *testing.T) {
	im := NewScene(33).Render(48, 32)
	im.Pix[0], im.Pix[1] = -0.5, 1.5 // out of range: clamped to 0 and 255
	var buf bytes.Buffer
	if err := WritePGM(&buf, im); err != nil {
		t.Fatalf("WritePGM: %v", err)
	}
	header := fmt.Sprintf("P5\n%d %d\n255\n", im.W, im.H)
	got := buf.Bytes()
	if !bytes.HasPrefix(got, []byte(header)) {
		t.Fatalf("header %q, want %q", got, header)
	}
	pix := got[len(header):]
	if len(pix) != len(im.Pix) {
		t.Fatalf("%d pixel bytes, want %d", len(pix), len(im.Pix))
	}
	for i, v := range im.Pix {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		want := byte(v*255 + 0.5)
		if pix[i] != want {
			t.Fatalf("pixel %d (%v) encoded as %d, want %d", i, v, pix[i], want)
		}
	}
	if pix[0] != 0 || pix[1] != 255 {
		t.Errorf("out-of-range pixels encoded as %d, %d; want 0, 255", pix[0], pix[1])
	}
}
