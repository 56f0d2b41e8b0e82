package simimg

import (
	"bufio"
	"fmt"
	"io"
)

// WritePGM encodes the image as a binary PGM (P5) file: the interchange
// format the imagegen tool emits and external tools can read. Pixels are
// clamped to [0,1] and quantized to 8 bits.
func WritePGM(w io.Writer, im *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	buf := make([]byte, len(im.Pix))
	for i, v := range im.Pix {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		buf[i] = byte(v*255 + 0.5)
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}
