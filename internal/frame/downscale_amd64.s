//go:build amd64 && !purego

// SSE2 row kernel of Downscale(2) (halveRow calls it when useSSE2, which
// init sets; SSE2 is baseline amd64). Per 16 outputs it reads 32 bytes of
// each source row, splits them into even bytes (PAND 0x00ff) and odd bytes
// (PSRLW $8) as words, adds the four taps and 2, shifts right by 2 and
// packs the words back to bytes: (a+b+c+d+2)>>2, as halveRowGo computes
// it. A word sum is at most 4·255+2, and a mean at most 255, so neither
// the adds nor PACKUSWB's saturation can change a value. The loop head is
// PCALIGN $64, so its speed does not follow the layout of the code linked
// before it.

#include "textflag.h"

// func halveSSE2(o, r0, r1 []uint8)
//   X6: 2 in every word   X7: 0x00ff in every word
TEXT ·halveSSE2(SB), NOSPLIT, $0-72
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ r0_base+24(FP), SI
	MOVQ r1_base+48(FP), DX
	PCMPEQW X7, X7
	PSRLW   $8, X7
	PCMPEQW X6, X6
	PSRLW   $15, X6
	PSLLW   $1, X6
	SHRQ    $4, CX           // 16-output chunks
	JEQ     done

	PCALIGN $64
chunk:
	MOVOU (SI), X0           // row 0, outputs 0-7
	MOVOU (DX), X1           // row 1
	MOVOU 16(SI), X4         // row 0, outputs 8-15
	MOVOU 16(DX), X5         // row 1
	MOVO  X0, X2
	MOVO  X1, X3
	PAND  X7, X0             // even taps as words
	PSRLW $8, X2             // odd taps
	PAND  X7, X1
	PSRLW $8, X3
	PADDW X2, X0
	PADDW X1, X0
	PADDW X3, X0
	PADDW X6, X0
	PSRLW $2, X0
	MOVO  X4, X2
	MOVO  X5, X3
	PAND  X7, X4
	PSRLW $8, X2
	PAND  X7, X5
	PSRLW $8, X3
	PADDW X2, X4
	PADDW X5, X4
	PADDW X3, X4
	PADDW X6, X4
	PSRLW $2, X4
	PACKUSWB X4, X0
	MOVOU X0, (DI)
	ADDQ  $32, SI
	ADDQ  $32, DX
	ADDQ  $16, DI
	DECQ  CX
	JNZ   chunk

done:
	RET
