//! Pins the exact output of seeded key generation.
//!
//! Every simulated run derives its host identities, certificates and DH
//! values from seeded RNGs, so a change to the arithmetic under RSA and DH
//! must reproduce the same keys from the same draws. For fixed seeds this
//! pins the RSA modulus, a signature over a fixed message, the next `u64`
//! the RNG yields after key generation (so the number of draws key
//! generation makes), and the Diffie–Hellman public value drawn after it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_crypto::dh::{DhGroup, DhKeyPair};
use sim_crypto::rsa::RsaKeyPair;

const MESSAGE: &[u8] = b"HIP base exchange I2";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The modulus bytes of a key's `len(n) || n || len(e) || e` encoding.
fn modulus_hex(kp: &RsaKeyPair) -> String {
    let bytes = kp.public().to_bytes();
    let len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
    hex(&bytes[4..4 + len])
}

/// `(seed, n, signature over MESSAGE, next u64, Test512 DH public)`.
const RSA512: [(u64, &str, &str, u64, &str); 3] = [
    (
        0x1,
        "703be83c0b2f98b9fe8dd143b651c3cc61a4cf888ba08959d228267ff54a3f63\
         003feab3a74e8013067ae037bf53652485d037655ddb6d56bf452c05517ddc41",
        "0f41915bf7a6ee63157ba7da7e39ccf0f188f9d5396dfda10655881707febd1a\
         12ccdc6e9bbb36e445b41fd3eb4386619d18de957d7d6e0643173ad132444f83",
        0x9c3a66c0f1c003a9,
        "876ecc4cf57d404bc1364dddead0e1768581efbec4b21eeced63ea38c4a11a34\
         aeb10bda8cb9065dda23a57a986360aa0501ad1fc3c8fd686baff23135f4b337",
    ),
    (
        0x2,
        "84dd439287537ff722e28d6772083b741eed3775ab76a859117f11642c7e205e\
         7ab0d522ca3f9d2cab28fbd9bff99da70cda6ede40897935eb1a50248e09f8bf",
        "319657004f192e541db67c220fa6136c3280bd1f3f82541807d30ae5e1e635d1\
         ff492ed294072a6b60394cc2f05f1aae71e7139b8f331a63b5d97b3b08131833",
        0x3a66867d6107865d,
        "cc6c55ab4e781a2cca616acb3622cbcb4d4ca4c5bc723da6f1298974671bbf58\
         e2c6d8a821392c4388c4f6239f4c281b53da78dc71f2da1d7eae7943022ee389",
    ),
    (
        0x004b_4559,
        "9a6d72c0f88625f457e64522b7a75e0fbbcda5d89616da6ff0dac3a747c5c077\
         a0c1c7d5b746a098d86242851a15da5a2fecc1f478eab9fe2e2ac8ff756bb4c7",
        "4fd18f8c35039b2fcd8551edf9990502e487e4c4deb1183a649c836fd0605a1d\
         efbbff8073b8957fd556e3abb0a3c4c732addef6be2f129f9b9a8c2a657908de",
        0xba0f56a34891f794,
        "6a0d00e476da6f7e5766d529bdc109774a60baec5f5989a9b5260c45077545a9\
         acf33f2933c72ceec687dd56fff0af0362b7ba42239803234f6838cd8dcfeaa2",
    ),
];

#[test]
fn rsa512_keygen_signature_draws_and_dh_are_pinned() {
    for (seed, n, sig, next, dh) in RSA512 {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = RsaKeyPair::generate(512, &mut rng);
        assert_eq!(modulus_hex(&kp), n, "seed {seed:#x}: modulus");
        let signature = kp.sign(MESSAGE);
        assert_eq!(hex(&signature), sig, "seed {seed:#x}: signature");
        assert!(kp.public().verify(MESSAGE, &signature));
        assert_eq!(rng.next_u64(), next, "seed {seed:#x}: RNG draws");
        let dh_public = DhKeyPair::generate(DhGroup::Test512, &mut rng).public_bytes();
        assert_eq!(hex(&dh_public), dh, "seed {seed:#x}: DH public");
    }
}

/// The other sizes the simulator and its tests use: the 64-bit host
/// identity (32-bit factors), a 1024-bit key and a MODP-2048 DH value.
#[test]
fn other_key_sizes_are_pinned() {
    let mut rng = StdRng::seed_from_u64(7);
    let kp = RsaKeyPair::generate(64, &mut rng);
    assert_eq!(modulus_hex(&kp), "a9c8526df7953dd1");
    assert_eq!(rng.next_u64(), 0x985c1ad2ac0c7069);

    let kp = RsaKeyPair::generate(1024, &mut rng);
    assert_eq!(
        modulus_hex(&kp),
        "a2b31ce3fe4551f57d19c05840237e323641fcb95bfad841db38e5ebd81d04c9\
         5e0f5380e4b6696ac3e41dd2bc97034d48e3fbfb9cac0949c96d49ddacd527fd\
         28cc4e5f8ec1397d0a5ab2c37f357114e87729990a911f7069f17db4e98cba0e\
         2e3bf2e8b67da67e1d3bee0f9f54d5f1610cc973f9615b27c730aa67cb1d60bf"
    );
    assert_eq!(
        hex(&kp.sign(MESSAGE)),
        "755fb697812c24a785cf82a8db7242925e689f3392633f7498010e1355f750dd\
         a4beccb1f8ad4a37c96b01efa4aa5b94003b3ce1ac615ae1a89788c505968908\
         27cdfb0eb515e1f2c661ebf24ca3826e862c5bb0ddbc2ccab3b1dd7e111ae506\
         740c6ccf5f973309777c2a231dd539e72467e6497b0d5ab8375654e377d639e2"
    );
    assert_eq!(rng.next_u64(), 0x5cc9c17840a506f2);

    let dh = DhKeyPair::generate(DhGroup::Modp2048, &mut rng);
    assert_eq!(
        hex(&dh.public_bytes()),
        "adb6d6ca2564764c21203ec5d290760f2606c59afb8adec5436b367a1e8c6cbe\
         302db6f2abf38da1d3c085334cdc68fb26a1e4dfe7494d54bef31eb5623758cb\
         25fee0191fd4634138393daa64ee699eaabccbfa107bc1e1f4935cb5f7d69ae6\
         88c98e80ddb597bee699bc1298703484a80cab599e89018159abc602f2369ac5\
         093d6b31ec3eef0c0aa649abca5b26217ff021b51bcd7040276fd0636300a302\
         1489ce9dc49914e3e07a217314f7f6aefb5bac4930ab167712eaa5c1f3f53ebf\
         c624c8cfef95200ec9477cbec2cdb2fdbc46b2f3bcffe502e63c9fcaca15481a\
         7603699f51803ea06fa43064ca0ceb287312d89739829684ef65bab4436316e2"
    );
}
