package tunnels

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"flexile/internal/topo"
)

// pinnedTunnels is one SHA-256 per Table-2 topology and policy over the
// tunnels of every pair u < v in order: each path's node and edge sequence.
// Every instance the repository builds routes over these tunnels, so a
// change that moves one pick here moves every pinned design and figure.
var pinnedTunnels = map[string][3]string{
	"B4": {
		"329d497fe41dc1a237d28c8912f7bdeb7a43fc95508d2131f314fa2cca8688d5",
		"a4d674d382749e9f9473c768cbac2c2b528d5ee6166ee3e33c46fccaf3b60bc7",
		"8d096198f65195f73902b5f91a01af3ce83e910b19948f2e5b68d5f9a8c804e8",
	},
	"IBM": {
		"57b91c2319b4636b8ad8fd138435e6a8b0f20752a49ee29c3406d3552730bbb2",
		"96973734787e6ca844d66643ab0442c148a60d9dc92c0878f61f8b56955813be",
		"2514723b2c8121bcfcf4ffac7b5a4c3d9f2a182528acac06313363fc79ab0481",
	},
	"ATT": {
		"2f7734d6ed24e8ff1878af8487c2301ead10c731ec45aa4fe7b02fd91fc62f4c",
		"758ef42b9072e521aef89abc9a20ebdf4927864921d8be1dd2740aa1ef3619e2",
		"ae475d8606344c789e81baf2e392c9844877d067ef8a79e3afecf4fd8719b191",
	},
	"Quest": {
		"86e2da587f0f16cdf9e9a3e60576b0ab835f8b03004753c0387ea52ca298d8c0",
		"11ef645858852be25110ffad0ea367b163d46f6be0dad7160544bb9cb9a30376",
		"14c488989a590bdf9280dc5168319e995f1eb83f7ce1196bc39154c594bf4f07",
	},
	"Tinet": {
		"1985562743b73163aa397e3051e277ba57bd256a77fd68ea67a73e298bffdd94",
		"fa76b720790676379290b59e5b0296a5ce4e58a068e42554a05062719fddeec3",
		"2364c86f3aae087f09d44158f5b264ed8073a2ef51268c9689bce465bfa2655d",
	},
	"Sprint": {
		"98ddbd9d1363d187578ab841c403db2b4d480c85ac8dd6b91a82afbf598d52f9",
		"36595b1503dd958c4c3f9f79f9fbebe64d5593d5eb2a2f3007a50f493fccaddb",
		"5d4c6ed4f24b7761d0ee1325f01b9301db7c8be487ab4f638d82d4efc40c1f77",
	},
	"GEANT": {
		"e968c40aab4a7f4166f7b4fdf96459f2a1583506d9209a0f4fc2d38fb4a6d210",
		"47b56d90da918a3fbee21764312a04d8411d564f2405bf34615f08000a41f45d",
		"58c269f766fffaac0aa7221f481dcbc075b66e4b385e6f545c71078617e43c60",
	},
	"Xeex": {
		"02cd3cbedf69e40e4d50c904ca9078432fc39a99fbc4241de510389a92af3a84",
		"71a6db6953c084158498f175374d0ac5b6f866bdc75ef4fb3d41615f8bc15144",
		"d2f436b74829ac83f96811c61265c4ca398ad8fe8046b0f2ddd474828653e488",
	},
	"CWIX": {
		"9cddfb7ba1944eaf351a6579b0350751c46b6b788040ca96a143167c6e309c36",
		"f1e3357766c5b41148beae2705c29bdb3885c75c70088c0ae9549e92d0acc910",
		"ec0ceeaf9e474b29a58bb5df4df3243fe35c38c826a8a8d6cea7e9040bb24334",
	},
	"Digex": {
		"ec238dd5c4b601b7590a106e4cb4ff68daed8e8ab9484c7df4548086030f8db4",
		"91e15d13d27cc3e3eee7f5bcff0f28126b57c5c15c708f947627abb12b791f01",
		"accf949d9eb834557922f45fb8d537764803d4c22cd0d57470d998b3f6c5e3e6",
	},
	"JanetBackbone": {
		"8d912ead11744b5f15f538505c4636e7e21032e21ca41f875a051021ba3a5b68",
		"b2712047383f2cee52c6d75722bce3f093ee0b0058b9f704069d9ea703d16a57",
		"beeac2801580970aac0eab99fce26ca719d947ab4c4825da46a8c0868fbed016",
	},
	"Highwinds": {
		"5f22e96d073c47d84480c6cd4bcbae1e7ef6e3ff864c225f54967e08ddc26090",
		"2e8a9889c84709fe219bb77c687b63114c35af00e4487cafae74aef49e4aa9f8",
		"42b25d75da79e01583c4931ee75174ca40909ef2c39e4b35d433058d3b3a6111",
	},
	"BTNorthAmerica": {
		"980db81ffc9153fe1b7ce1869b2beedf71083032b349970d592a1190f0269352",
		"6a2f927efb65f1b5be89497e6c7db9c5b91f6129f861d8623e0312e08bfafd2e",
		"df0fb0ea7d034643f4b4a0a1c84676743b39454f5fa4f101ea368545476f5738",
	},
	"CRLNetwork": {
		"e72d81fb65d15ba1b1ca1eadb383c955a5b86632b6876a40c6d30924ece445b6",
		"c24c6f227d7ca6a0d3a583ffc605ee1819f3fe9236eecf919ba1738d609ce4ed",
		"a7f991ec0892be238c69c5d5096325d8f35871808e59c71f18e7d36ad0acd93b",
	},
	"Darkstrand": {
		"6beab3dbf9ece3e05a75cfae1357ee91db903f33bedc9a144c491a799ad093d0",
		"85f689d2855c9238765e04a5833c0559703aa8aeb4286c1b10b38161f18b0ebf",
		"96eb86f1993303742bf82ec6d045e5384106b7c67ebb5e8bd390f9e5625502e9",
	},
	"Integra": {
		"609b37320a5acf1c1a3e265fe98ee6325b0e2f6da6a317c347054e91b3083ef2",
		"b14b3cafc89feffb8124ec4e0240b2671a77608402e2d393f0f75aa7b5501c82",
		"931bfceead5fcf6d29da19057ca45f506b1be84f85aea5c66e0efc7a0e14e934",
	},
	"Xspedius": {
		"5373a8f2ab98d8e79a11e9815e5b7c8c332c5f17f7600c427d0b5e5747af88db",
		"f288bf747c60ccf667bdcfae20fe4106358b0b7105b16cc636160a1b7739d3a2",
		"a25545c116d42bd13afcec94a5bb852af0c8eb537bd4f536bafbecb6eff0fb24",
	},
	"InternetMCI": {
		"7eebbd6ca2773581b432a6c4a6637f799d5e27ae64ddd88404ea28eec859712c",
		"b4e7618a5321c6182f51151f24eb33f48cf855881832e50a7576b31bcef9579b",
		"4b058737eb0c6f47e86cc1bc64bfff13191b4676cdea3abc169ffd9ede539db2",
	},
	"Deltacom": {
		"7afad57af9a5130686420d82d7df75b8e9c85e39c6dbe5a3d59c0c3cbc174443",
		"563f504d7a14605d990307ecafcfb3d415509b7d041088a081b959457e3a3cf4",
		"3c7b4461c931c1b11e428e5937d221109881752f664ac7f652089dd2bb0c27e6",
	},
	"IIJ": {
		"0bfbdae710cd311c564c9205b14d299c6170d4749e14013dd6840289c11dee10",
		"cc21a5278872f52bfca96061b7a8dab3669032696e03a5e6bdd9d403408dc89b",
		"6bbb61d29eb747c33721bd97b3e598574fe9583c9213e372bd1e6ca05a01aae3",
	},
}

// pinPolicies are the three policies the repository's instances use, in
// the column order of pinnedTunnels.
var pinPolicies = [3]struct {
	name   string
	policy Policy
}{
	{"SingleClass(3)", SingleClass(3)},
	{"HighPriority(3)", HighPriority(3)},
	{"LowPriority(3,3)", LowPriority(3, 3)},
}

// TestTunnelsPinned checks that tunnel selection on all 20 Table-2
// topologies is byte-for-byte what it was when the digests were recorded.
// The topologies run as parallel subtests.
func TestTunnelsPinned(t *testing.T) {
	for _, name := range topo.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := topo.MustLoad(name).G
			want := pinnedTunnels[name]
			for c, pp := range pinPolicies {
				h := sha256.New()
				for u := 0; u < g.NumNodes(); u++ {
					for v := u + 1; v < g.NumNodes(); v++ {
						fmt.Fprintf(h, "%d-%d:", u, v)
						for _, p := range pp.policy(g, u, v) {
							fmt.Fprintf(h, "%v%v;", p.Nodes, p.Edges)
						}
						fmt.Fprintln(h)
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[c] {
					t.Errorf("%s: tunnels digest %s, want %s", pp.name, got, want[c])
				}
			}
		})
	}
}
