//go:build amd64 && !purego

package nn

func init() {
	edgeTileSets = append(edgeTileSets, edgeTiles{"asm", kern8x4, kern4x4, kern1x4})
}
