package delta_test

import (
	"context"
	"fmt"
	"log"

	"delta"
)

// Example demonstrates the common path: traffic estimate, performance
// estimate, bottleneck.
func Example() {
	layer := delta.Conv{
		Name: "conv", B: 256,
		Ci: 256, Hi: 13, Wi: 13,
		Co: 384, Hf: 3, Wf: 3,
		Stride: 1, Pad: 1,
	}
	res, err := delta.Estimate(layer, delta.TitanXp(), delta.TrafficOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bottleneck: %s\n", res.Bottleneck)
	// Output: bottleneck: MAC_BW
}

// ExampleEstimateTraffic shows the per-level traffic breakdown and the
// modeled miss rates.
func ExampleEstimateTraffic() {
	layer := delta.Conv{Name: "pw", B: 256, Ci: 512, Hi: 14, Wi: 14,
		Co: 128, Hf: 1, Wf: 1, Stride: 1}
	est, err := delta.EstimateTraffic(layer, delta.TitanXp(), delta.TrafficOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tile %s, L1 miss rate %.0f%%\n", est.Grid.Tile, est.MissRateL1()*100)
	// Output: tile (128x128)x8, L1 miss rate 40%
}

// ExampleSelectTile shows the Fig. 6 CTA tile lookup.
func ExampleSelectTile() {
	for _, co := range []int{16, 48, 96} {
		fmt.Println(co, delta.SelectTile(co))
	}
	// Output:
	// 16 (128x32)x4
	// 48 (128x64)x4
	// 96 (128x128)x8
}

// ExampleDgradLayer shows how a stride-1 convolution's data-gradient pass
// is itself a convolution with swapped channels and full padding.
func ExampleDgradLayer() {
	fwd := delta.Conv{Name: "conv", B: 32, Ci: 64, Hi: 28, Wi: 28,
		Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	bwd, err := delta.DgradLayer(fwd)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d->%d channels, output %dx%d\n", bwd.Ci, bwd.Co, bwd.Ho(), bwd.Wo())
	// Output: 128->64 channels, output 28x28
}

// ExampleBottleneckHistogram tallies what limits each layer of a network.
func ExampleBottleneckHistogram() {
	net := delta.AlexNet(256)
	rs, err := delta.EstimateAllContext(context.Background(), net.Layers, delta.TitanXp(), delta.TrafficOptions{})
	if err != nil {
		log.Fatal(err)
	}
	h := delta.BottleneckHistogram(rs, nil)
	fmt.Printf("MAC-bound layers: %d/%d\n", h[delta.MACBW], len(rs))
	// Output: MAC-bound layers: 5/5
}
