//! The HIP layer-3.5 shim: the protocol engine that plugs into a
//! [`netsim::Host`].
//!
//! Responsibilities (mirroring the HIPL daemon + kernel hooks the paper
//! deployed on its EC2/OpenNebula VMs):
//!
//! - intercept upper-layer packets addressed to HITs/LSIs;
//! - run the **Base Exchange** (I1 → R1 → I2 → R2, RFC 5201 §4.1) with
//!   real signatures, a real Diffie–Hellman agreement, real puzzles and
//!   pre-computed R1s for DoS resilience;
//! - derive KEYMAT and install **ESP-BEET** security associations;
//! - encrypt/decrypt the data plane, charging the cost model;
//! - handle **UPDATE** (mobility with return-routability echo, RFC
//!   5206), **CLOSE**, rendezvous registration and HIT-based firewall
//!   policy.

use crate::cost::CostModel;
use crate::esp::{EspError, EspSa, InnerMode};
use crate::firewall::{Action, Firewall};
use crate::identity::{Hit, HostIdentity, LsiMapper, PublicHi};
use crate::puzzle;
use crate::wire::{encode_locator, param_type, HipPacket, PacketType, Param};
use netsim::fx::FxHashMap;
use netsim::packet::{Packet, Payload};
use netsim::{DropReason, L35Shim, ShimApi, SimDuration, SimTime};
use obs::HistId;
use sim_crypto::dh::{DhGroup, DhKeyPair};
use sim_crypto::hmac::HmacKey;
use sim_crypto::kdf::keymat;
use std::any::Any;
use std::net::{IpAddr, Ipv4Addr};
use AssocState::{I1Sent, Keyed};
use DropReason::{
    EspAuth, EspNoSa, EspReplay, HipAuth, HipClosing, HipCollision, HipDecode, HipFirewall,
    HipMalformed, HipNoLocator, HipNotOurs, HipUnexpected, HipUnknownPeer,
};
use Phase::{Closing, Established, I2Sent};

/// BEX/UPDATE retransmission interval.
const RETRANSMIT_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Number of pre-computed R1s (each with its own puzzle and DH key).
const R1_POOL_SIZE: usize = 8;
/// At most one NOTIFY(stale SPI) per SPI per window; the rate limiter
/// is swept once per window.
const NOTIFY_WINDOW: SimDuration = SimDuration::from_secs(1);

/// What a packet handler returns: `Err` names why the packet was
/// dropped, and `inbound`/`outbound` record it.
type Verdict = Result<(), DropReason>;

/// Shim configuration.
#[derive(Clone)]
pub struct HipConfig {
    /// DH group for the BEX (tests use the small group; the cost model,
    /// not the arithmetic, provides timing).
    pub dh_group: DhGroup,
    /// Puzzle difficulty advertised in R1.
    pub puzzle_k: u8,
    /// Virtual CPU costs.
    pub costs: CostModel,
    /// Retransmissions before giving up.
    pub max_retransmits: u32,
    /// Rendezvous server to register with, if any.
    pub rvs: Option<IpAddr>,
}

impl Default for HipConfig {
    fn default() -> Self {
        HipConfig {
            dh_group: DhGroup::Test512,
            puzzle_k: 10,
            costs: CostModel::paper_era(),
            max_retransmits: 5,
            rvs: None,
        }
    }
}

/// Counters exposed for tests, experiments and ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HipStats {
    /// Base exchanges this host started (I1 sent).
    pub bex_initiated: u64,
    /// Associations fully established (either role).
    pub bex_completed: u64,
    /// Exchanges abandoned after retransmission exhaustion.
    pub bex_failed: u64,
    /// ESP data packets encapsulated.
    pub esp_out: u64,
    /// ESP data packets successfully decapsulated.
    pub esp_in: u64,
    /// Plaintext payload bytes protected outbound.
    pub esp_bytes_out: u64,
    /// Plaintext payload bytes recovered inbound.
    pub esp_bytes_in: u64,
    /// Inbound ESP rejected by the anti-replay window
    /// ([`DropReason::EspReplay`]).
    pub drops_replay: u64,
    /// Packets rejected by signature/HMAC/ICV/puzzle checks, or control
    /// packets that do not decode ([`DropReason::EspAuth`],
    /// [`DropReason::HipAuth`], [`DropReason::HipDecode`]).
    pub drops_auth: u64,
    /// Exchanges/packets refused by the HIT firewall
    /// ([`DropReason::HipFirewall`]).
    pub drops_firewall: u64,
    /// ESP for an unknown SPI or an SA-less association
    /// ([`DropReason::EspNoSa`]).
    pub drops_no_sa: u64,
    /// Mobility UPDATEs announced.
    pub updates_sent: u64,
    /// Mobility UPDATEs verified to completion.
    pub updates_completed: u64,
    /// Associations closed via CLOSE/CLOSE_ACK.
    pub closes: u64,
    /// Control packets retransmitted.
    pub retransmissions: u64,
    /// NOTIFY(stale SPI) packets sent for ESP with no matching SA.
    pub notifies_sent: u64,
    /// Associations torn down and re-negotiated after a peer reported
    /// our SPI stale (it crashed and lost its SAs).
    pub stale_spi_rebex: u64,
}

/// Where an association is, with the data that exists there. Keys exist
/// from I2 on, so a keyed association keeps them beside its [`Phase`]:
/// moving between phases never moves the keys.
#[allow(clippy::large_enum_variant, reason = "ESP frames reach SAs inline")]
enum AssocState {
    /// I1 sent, awaiting R1.
    I1Sent(Pending),
    /// KEYMAT derived: our I2 sent, or the peer's answered.
    Keyed(Keys, Phase),
}

/// The states of an association that holds [`Keys`].
#[allow(clippy::large_enum_variant, reason = "ESP frames reach SAs inline")]
enum Phase {
    /// I2 sent, awaiting R2, which names the peer's SPI for these
    /// outbound keys.
    I2Sent(SaKeys, Pending),
    /// Both SAs installed (the outbound one here): data flows.
    Established(EspSa, Mobility),
    /// CLOSE sent, awaiting the CLOSE_ACK that echoes this nonce.
    Closing(u64),
}

/// A base exchange this host started and is still running.
#[derive(Default)]
struct Pending {
    /// Upper-layer packets waiting for the SA.
    queued: Vec<Packet>,
    /// When the I1 went out, for the `hip.bex` latency span.
    started: SimTime,
}

/// An SA's encryption and authentication keys, cut from KEYMAT.
type SaKeys = ([u8; 16], [u8; 32]);

/// What an association holds from I2 on.
struct Keys {
    peer_hi: PublicHi,
    /// Cached HMAC transcripts for outbound/inbound control packets
    /// (ipad/opad absorbed once at KEYMAT time, cloned per packet).
    hmac_out: HmacKey,
    hmac_in: HmacKey,
    /// Our inbound SA, under the SPI we sent the peer.
    sa_in: EspSa,
}

/// Mobility (RFC 5206) state of an established association.
#[derive(Default)]
struct Mobility {
    /// Our last UPDATE SEQ.
    seq: u32,
    /// We moved and await the peer's echo.
    in_flight: bool,
    /// The peer moved; we sent an echo and await the response.
    verify: Option<PendingVerify>,
}

struct Rtx {
    bytes: bytes::Bytes,
    dst: IpAddr,
    tries: u32,
    /// Engine handle for the armed timer, cancelled when the reply
    /// arrives so acknowledged retransmissions never pop stale.
    engine_timer: netsim::TimerToken,
}

/// An association's control-packet retransmission.
struct Retransmit {
    /// The shim timer token; a key of `HipShim::timers` exactly while
    /// `armed` is set.
    token: u64,
    armed: Option<Rtx>,
}

impl Retransmit {
    /// Arms a retransmission of `bytes` to `dst` in place of any armed one.
    fn arm(
        &mut self,
        api: &mut ShimApi,
        timers: &mut FxHashMap<u64, Hit>,
        peer: Hit,
        bytes: bytes::Bytes,
        dst: IpAddr,
        tries: u32,
    ) {
        let engine_timer = api.set_timer(RETRANSMIT_TIMEOUT, self.token);
        if let Some(old) = self.armed.replace(Rtx {
            bytes,
            dst,
            tries,
            engine_timer,
        }) {
            api.cancel_timer(old.engine_timer);
        }
        timers.insert(self.token, peer);
    }

    /// Cancels the armed retransmission, if any, releasing the token.
    fn cancel(&mut self, api: &mut ShimApi, timers: &mut FxHashMap<u64, Hit>) {
        if let Some(rtx) = self.armed.take() {
            api.cancel_timer(rtx.engine_timer);
            timers.remove(&self.token);
        }
    }
}

/// Peer-side mobility verification in progress.
struct PendingVerify {
    nonce: u64,
    new_locator: IpAddr,
    seq_ours: u32,
}

struct Association {
    local_locator: IpAddr,
    peer_locator: IpAddr,
    rtx: Retransmit,
    state: AssocState,
}

/// A pre-computed R1 (signature covers the zero-receiver form).
struct R1Entry {
    params: Vec<Param>,
    dh: DhKeyPair,
}

/// Statically configured peer knowledge (the paper pre-configures HITs;
/// DNS/rendezvous provide the dynamic alternatives).
#[derive(Clone, Debug, Default)]
pub struct PeerInfo {
    /// Known locators, tried in order.
    pub locators: Vec<IpAddr>,
    /// Reach this peer's I1 through a rendezvous server instead.
    pub via_rvs: Option<IpAddr>,
}

/// The HIP shim.
pub struct HipShim {
    identity: HostIdentity,
    config: HipConfig,
    /// LSI allocation for legacy IPv4 applications.
    pub lsi: LsiMapper,
    my_lsi: Ipv4Addr,
    peers: FxHashMap<Hit, PeerInfo>,
    assocs: FxHashMap<Hit, Association>,
    /// Inbound SPI → peer, one entry per live inbound SA.
    spi_in: FxHashMap<u32, Hit>,
    /// The HIT-based packet filter.
    pub firewall: Firewall,
    r1_pool: Vec<R1Entry>,
    /// Puzzle I → pool index, for verifying I2 solutions statelessly.
    active_puzzles: FxHashMap<u64, usize>,
    /// Last timer token handed to an association.
    next_timer: u64,
    /// Timer token → peer, one entry per armed retransmission.
    timers: FxHashMap<u64, Hit>,
    /// Protocol counters.
    pub stats: HipStats,
    /// Handles of the per-packet ESP histograms: CPU work charged
    /// (`esp.encrypt`, `esp.decrypt`) and inner payload bytes
    /// (`esp.out_bytes`, `esp.in_bytes`), each resolved on first use.
    encrypt_hist: Option<HistId>,
    out_bytes_hist: Option<HistId>,
    decrypt_hist: Option<HistId>,
    in_bytes_hist: Option<HistId>,
    /// Registered with the rendezvous server?
    pub rvs_registered: bool,
    /// Monotonic registration sequence (RVS replay guard).
    reg_seq: u32,
    /// Last NOTIFY(stale SPI) per unknown SPI, for rate limiting. Each
    /// SPI a peer sprays adds an entry, so entries whose window has
    /// expired are swept out once per [`NOTIFY_WINDOW`].
    notify_limiter: FxHashMap<u32, SimTime>,
    /// When `notify_limiter` was last swept.
    notify_swept: SimTime,
}

impl HipShim {
    /// Creates a shim around a host identity.
    pub fn new(identity: HostIdentity, config: HipConfig) -> Self {
        let mut lsi = LsiMapper::new();
        let my_lsi = lsi.lsi_for(identity.hit());
        HipShim {
            identity,
            config,
            lsi,
            my_lsi,
            peers: FxHashMap::default(),
            assocs: FxHashMap::default(),
            spi_in: FxHashMap::default(),
            firewall: Firewall::allow_all(),
            r1_pool: Vec::new(),
            active_puzzles: FxHashMap::default(),
            next_timer: 0,
            timers: FxHashMap::default(),
            stats: HipStats::default(),
            encrypt_hist: None,
            out_bytes_hist: None,
            decrypt_hist: None,
            in_bytes_hist: None,
            rvs_registered: false,
            reg_seq: 0,
            notify_limiter: FxHashMap::default(),
            notify_swept: SimTime::ZERO,
        }
    }

    /// This host's HIT.
    pub fn hit(&self) -> Hit {
        self.identity.hit()
    }

    /// This host's own LSI.
    pub fn lsi(&self) -> Ipv4Addr {
        self.my_lsi
    }

    /// The public host identity.
    pub fn public(&self) -> &PublicHi {
        self.identity.public()
    }

    /// Registers a peer (HIT → locators), returning the LSI local
    /// applications can use for it.
    pub fn add_peer(&mut self, hit: Hit, info: PeerInfo) -> Ipv4Addr {
        self.peers.insert(hit, info);
        self.lsi.lsi_for(hit)
    }

    /// Entries in the stale-SPI NOTIFY rate limiter (tests): at most the
    /// SPIs notified in the last two windows.
    pub fn notify_limiter_len(&self) -> usize {
        self.notify_limiter.len()
    }

    /// Whether an association with `peer` is established.
    pub fn is_established(&self, peer: &Hit) -> bool {
        self.assocs
            .get(peer)
            .is_some_and(|a| matches!(a.state, Keyed(_, Established(..))))
    }

    /// The peer locator currently used for `peer` (tests/mobility).
    pub fn peer_locator(&self, peer: &Hit) -> Option<IpAddr> {
        self.assocs.get(peer).map(|a| a.peer_locator)
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// Checks the shim's bookkeeping against its associations: `timers`
    /// holds one token per armed retransmission, `spi_in` one SPI per
    /// live inbound SA, `active_puzzles` at most one puzzle per R1 pool
    /// entry, each pointing into the pool, and every `notify_limiter`
    /// entry lies within one window of the last sweep (so the limiter
    /// holds at most the SPIs notified in two windows).
    pub fn check_invariants(&self) -> Result<(), String> {
        let armed = self.assocs.iter().filter(|(_, a)| a.rtx.armed.is_some());
        let timers: FxHashMap<u64, Hit> = armed.map(|(p, a)| (a.rtx.token, *p)).collect();
        if timers != self.timers {
            return Err(format!("timer tokens {:?}, armed {timers:?}", self.timers));
        }
        let sas_in = self.assocs.iter().filter_map(|(p, a)| match &a.state {
            Keyed(keys, _) => Some((keys.sa_in.spi, *p)),
            I1Sent(_) => None,
        });
        let spi_in: FxHashMap<u32, Hit> = sas_in.collect();
        if spi_in != self.spi_in {
            return Err(format!("inbound SPIs {:?}, SAs {spi_in:?}", self.spi_in));
        }
        let pool = self.r1_pool.len();
        let puzzles = self.active_puzzles.len();
        if puzzles > R1_POOL_SIZE || self.active_puzzles.values().any(|&idx| idx >= pool) {
            return Err(format!("{puzzles} active puzzles for an R1 pool of {pool}"));
        }
        let swept = self.notify_swept;
        let unswept = self
            .notify_limiter
            .iter()
            .find(|(_, &t)| swept.since(t) >= NOTIFY_WINDOW || t.since(swept) >= NOTIFY_WINDOW);
        if let Some((spi, t)) = unswept {
            return Err(format!(
                "NOTIFY limiter entry {spi:08x} at {t:?} is a window or more from the sweep at {swept:?}"
            ));
        }
        Ok(())
    }

    /// A new association from `src` to `dst` in `state`; it takes the
    /// next timer token.
    fn new_assoc(&mut self, src: IpAddr, dst: IpAddr, state: AssocState) -> Association {
        self.next_timer += 1;
        let token = self.next_timer;
        Association {
            local_locator: src,
            peer_locator: dst,
            rtx: Retransmit { token, armed: None },
            state,
        }
    }

    /// Builds the precomputed R1 pool.
    fn build_r1_pool(&mut self, api: &mut ShimApi) {
        for idx in 0..R1_POOL_SIZE {
            let dh = DhKeyPair::generate(self.config.dh_group, api.rng());
            let i = api.random_u64();
            let mut params = vec![
                Param::R1Counter(idx as u64),
                Param::Puzzle {
                    k: self.config.puzzle_k,
                    lifetime: 120,
                    opaque: idx as u16,
                    i,
                },
                Param::DiffieHellman {
                    group: self.config.dh_group.group_id(),
                    public: dh.public_bytes(),
                },
                Param::HipTransform(vec![1]),
                Param::EspTransform(vec![1]),
                Param::HostId(self.identity.public().to_bytes()),
            ];
            // Signature over the zero-receiver form enables precomputation.
            let unsigned = HipPacket::new(PacketType::R1, self.hit(), Hit::NULL, params.clone());
            let covered = unsigned.bytes_before_with_zero_receiver(param_type::HIP_SIGNATURE);
            params.push(Param::Signature(self.identity.sign(&covered, api.rng())));
            self.active_puzzles.insert(i, idx);
            self.r1_pool.push(R1Entry { params, dh });
        }
    }

    /// Where an I1 for `peer` goes: our locator, and the peer's first
    /// known locator or else its rendezvous server.
    fn bex_route(&self, api: &ShimApi, peer: &Hit) -> Result<(IpAddr, IpAddr), DropReason> {
        let info = self.peers.get(peer).ok_or(HipUnknownPeer)?;
        let dst = info.locators.first().copied().or(info.via_rvs);
        let dst = dst.ok_or(HipNoLocator)?;
        let src = api.local_locator(&dst).ok_or(HipNoLocator)?;
        Ok((src, dst))
    }

    /// Starts a BEX toward `peer` along `route`, holding `queued` until
    /// the SA is up.
    fn initiate(
        &mut self,
        api: &mut ShimApi,
        peer: Hit,
        (src, dst): (IpAddr, IpAddr),
        queued: Vec<Packet>,
    ) {
        let i1 = HipPacket::new(PacketType::I1, self.hit(), peer, vec![]);
        let bytes = send_control(api, self.config.costs.hit_lookup, &i1, src, dst);
        self.stats.bex_initiated += 1;
        let started = api.now();
        let state = I1Sent(Pending { queued, started });
        let mut assoc = self.new_assoc(src, dst, state);
        assoc.rtx.arm(api, &mut self.timers, peer, bytes, dst, 0);
        self.assocs.insert(peer, assoc);
        api.trace_state(|| format!("BEX: I1 -> {peer:?} via {dst}"));
    }

    // ------------------------------------------------------------------
    // Inbound control handling
    // ------------------------------------------------------------------

    fn on_i1(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) -> Verdict {
        if self.firewall.check(&pkt.sender_hit) == Action::Deny {
            return Err(HipFirewall);
        }
        if self.r1_pool.is_empty() {
            self.build_r1_pool(api);
        }
        // Rotate through the pool.
        let idx = (pkt.sender_hit.0[15] as usize) % self.r1_pool.len();
        let entry = &self.r1_pool[idx];
        let r1 = HipPacket::new(
            PacketType::R1,
            self.hit(),
            pkt.sender_hit,
            entry.params.clone(),
        );
        // Reply toward the FROM locator if the I1 was relayed by an RVS.
        let reply_to = pkt
            .find(|p| match p {
                Param::From(a) => Some(crate::wire::decode_locator(a)),
                _ => None,
            })
            .unwrap_or(wire.src);
        let src = api.local_locator(&reply_to).ok_or(HipNoLocator)?;
        // Precomputed: only a table lookup is charged — this is the DoS
        // resilience property (§IV-B).
        send_control(api, self.config.costs.hit_lookup, &r1, src, reply_to);
        Ok(())
    }

    fn on_r1(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) -> Verdict {
        let peer = pkt.sender_hit;
        let assoc = self.assocs.get_mut(&peer).ok_or(HipUnexpected)?;
        let I1Sent(pending) = &mut assoc.state else {
            return Err(HipUnexpected);
        };
        // Validate the host identity and signature.
        let hi_bytes = pkt.host_id().ok_or(HipMalformed)?;
        let hi = PublicHi::from_bytes(hi_bytes).ok_or(HipMalformed)?;
        if hi.hit() != peer {
            return Err(HipAuth);
        }
        let sig = pkt.signature().ok_or(HipMalformed)?;
        let covered = pkt.bytes_before_with_zero_receiver(param_type::HIP_SIGNATURE);
        if !hi.verify(&covered, sig) {
            return Err(HipAuth);
        }
        let (k, _lifetime, opaque, i) = pkt.puzzle().ok_or(HipMalformed)?;
        if k > puzzle::MAX_K {
            return Err(HipAuth);
        }
        let (group_id, peer_dh_pub) = pkt.diffie_hellman().ok_or(HipMalformed)?;
        let group = DhGroup::from_group_id(group_id).ok_or(HipMalformed)?;

        // Solve the puzzle (really).
        let my_hit = self.identity.hit();
        let j0 = api.random_u64();
        let (j, attempts) = puzzle::solve(i, k, &my_hit, &peer, j0);
        api.metrics().observe_name("hip.puzzle.attempts", attempts);

        // DH: generate our ephemeral pair and compute the shared secret.
        let dh = DhKeyPair::generate(group, api.rng());
        let kij = dh.shared_secret(peer_dh_pub).ok_or(HipAuth)?;
        // As initiator we send under the I→R keys.
        let [(hmac_out, out_keys), (hmac_in, (enc, mac))] = derive_keys(&kij, my_hit, peer, i, j);

        let local_spi = (api.random_u64() as u32) | 1;
        let params = vec![
            Param::Solution { k, opaque, i, j },
            Param::DiffieHellman {
                group: group_id,
                public: dh.public_bytes(),
            },
            Param::HipTransform(vec![1]),
            Param::EspTransform(vec![1]),
            Param::EspInfo {
                old_spi: 0,
                new_spi: local_spi,
            },
            Param::HostId(self.identity.public().to_bytes()),
        ];
        let i2 = seal(
            &self.identity,
            api,
            PacketType::I2,
            peer,
            params,
            Some(&hmac_out),
        );

        // Total control-plane CPU: R1 verify + puzzle + 2 DH ops + I2 sign.
        let costs = &self.config.costs;
        let work = costs.verify(hi.algorithm())
            + costs.puzzle_attempts(attempts)
            + costs.dh_compute
            + costs.dh_compute
            + costs.sign(self.identity.algorithm());

        // R1 may arrive from a different locator than the I1 went to
        // (rendezvous case): follow the wire source.
        let peer_locator = wire.src;
        let src = api.local_locator(&peer_locator).ok_or(HipNoLocator)?;
        let bytes = send_control(api, work, &i2, src, peer_locator);

        // The inbound SA can be installed now (the peer will use our
        // SPI); the outbound one waits for the peer's SPI in R2.
        let sa_in = EspSa::new(local_spi, enc, mac, peer.to_ip(), my_hit.to_ip());
        let keys = Keys {
            peer_hi: hi,
            hmac_out,
            hmac_in,
            sa_in,
        };
        assoc.state = Keyed(keys, I2Sent(out_keys, std::mem::take(pending)));
        assoc.peer_locator = peer_locator;
        assoc.local_locator = src;
        self.spi_in.insert(local_spi, peer);
        assoc
            .rtx
            .arm(api, &mut self.timers, peer, bytes, peer_locator, 0);
        api.trace_state(|| {
            format!("BEX: R1 ok, I2 -> {peer:?} (puzzle k={k}, {attempts} attempts)")
        });
        Ok(())
    }

    fn on_i2(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) -> Verdict {
        let peer = pkt.sender_hit;
        if self.firewall.check(&peer) == Action::Deny {
            return Err(HipFirewall);
        }
        let my_hit = self.hit();
        // Both ends sent an I2 (RFC 5201 §4.4.2): the larger HIT answers
        // as responder, the smaller drops this I2 and awaits the R2 to
        // its own.
        let state = self.assocs.get(&peer).map(|a| &a.state);
        if matches!(state, Some(Keyed(_, I2Sent(..)))) && my_hit < peer {
            return Err(HipCollision);
        }
        let (k, _, i, j) = pkt.solution().ok_or(HipMalformed)?;
        // The puzzle must be one we issued (pool membership) and solved.
        let &pool_idx = self.active_puzzles.get(&i).ok_or(HipAuth)?;
        if k != self.config.puzzle_k || !puzzle::verify(i, k, &peer, &my_hit, j) {
            return Err(HipAuth);
        }
        let hi_bytes = pkt.host_id().ok_or(HipMalformed)?;
        let hi = PublicHi::from_bytes(hi_bytes).ok_or(HipMalformed)?;
        if hi.hit() != peer {
            return Err(HipAuth);
        }
        let (_group_id, peer_dh_pub) = pkt.diffie_hellman().ok_or(HipMalformed)?;
        let kij = self.r1_pool[pool_idx]
            .dh
            .shared_secret(peer_dh_pub)
            .ok_or(HipAuth)?;
        // As responder we send under the R→I keys.
        let [(hmac_in, (enc_in, mac_in)), (hmac_out, (enc_out, mac_out))] =
            derive_keys(&kij, my_hit, peer, i, j);
        // HMAC then signature.
        if !verify_sealed(pkt, &hi, &hmac_in) {
            return Err(HipAuth);
        }
        let (_, peer_spi) = pkt.esp_info().ok_or(HipMalformed)?;

        let local_spi = (api.random_u64() as u32) | 1;
        let params = vec![Param::EspInfo {
            old_spi: 0,
            new_spi: local_spi,
        }];
        let r2 = seal(
            &self.identity,
            api,
            PacketType::R2,
            peer,
            params,
            Some(&hmac_out),
        );

        let costs = &self.config.costs;
        let work = costs.hash_attempt // puzzle verification: one hash
            + costs.dh_compute
            + costs.verify(hi.algorithm())
            + costs.sign(self.identity.algorithm());
        let peer_locator = wire.src;
        let src = api.local_locator(&peer_locator).ok_or(HipNoLocator)?;
        send_control(api, work, &r2, src, peer_locator);

        let sa_in = EspSa::new(local_spi, enc_in, mac_in, peer.to_ip(), my_hit.to_ip());
        let sa_out = EspSa::new(peer_spi, enc_out, mac_out, my_hit.to_ip(), peer.to_ip());
        let keys = Keys {
            peer_hi: hi,
            hmac_out,
            hmac_in,
            sa_in,
        };
        let state = Keyed(keys, Established(sa_out, Mobility::default()));
        let assoc = self.new_assoc(src, peer_locator, state);
        // Make sure the peer has an LSI for legacy traffic.
        self.lsi.lsi_for(peer);
        self.peers.entry(peer).or_insert_with(|| PeerInfo {
            locators: vec![peer_locator],
            via_rvs: None,
        });
        // An association this one replaces is released, and what it had
        // queued goes out through the new SA.
        let queued = match self.assocs.insert(peer, assoc) {
            Some(old) => self.release(api, old),
            None => Vec::new(),
        };
        self.spi_in.insert(local_spi, peer);
        self.stats.bex_completed += 1;
        api.trace_state(|| format!("BEX: established (responder) with {peer:?}"));
        for pkt in &queued {
            self.encap_and_send(api, peer, pkt, SimDuration::ZERO)?;
        }
        Ok(())
    }

    fn on_r2(&mut self, api: &mut ShimApi, pkt: &HipPacket) -> Verdict {
        let peer = pkt.sender_hit;
        let assoc = self.assocs.get_mut(&peer).ok_or(HipUnexpected)?;
        let Keyed(keys, phase) = &mut assoc.state else {
            return Err(HipUnexpected);
        };
        let I2Sent((enc, mac), pending) = phase else {
            return Err(HipUnexpected);
        };
        if !verify_sealed(pkt, &keys.peer_hi, &keys.hmac_in) {
            return Err(HipAuth);
        }
        let (_, peer_spi) = pkt.esp_info().ok_or(HipMalformed)?;
        let work = self.config.costs.verify(keys.peer_hi.algorithm());
        let delay = api.charge_cpu(work);

        // The full base exchange span, I1 sent → R2 verified.
        let bex_ns = api.now().since(pending.started).as_nanos();
        if api.metrics().is_enabled() {
            api.metrics().observe_name("hip.bex", bex_ns);
        }
        let my_hit = self.identity.hit();
        let sa_out = EspSa::new(peer_spi, *enc, *mac, my_hit.to_ip(), peer.to_ip());
        let queued = std::mem::take(&mut pending.queued);
        *phase = Established(sa_out, Mobility::default());
        assoc.rtx.cancel(api, &mut self.timers);
        self.lsi.lsi_for(peer);
        self.stats.bex_completed += 1;
        api.trace_state(|| format!("BEX: established (initiator) with {peer:?}"));
        // Flush queued upper packets through the new SA.
        for pkt in &queued {
            self.encap_and_send(api, peer, pkt, delay)?;
        }
        Ok(())
    }

    fn on_update(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) -> Verdict {
        let peer = pkt.sender_hit;
        let assoc = self.assocs.get_mut(&peer).ok_or(HipUnexpected)?;
        let Keyed(keys, Established(_, mobility)) = &mut assoc.state else {
            return Err(HipUnexpected);
        };
        if !verify_sealed(pkt, &keys.peer_hi, &keys.hmac_in) {
            return Err(HipAuth);
        }
        let verify_cost = self.config.costs.verify(keys.peer_hi.algorithm());
        let sign_cost = self.config.costs.sign(self.identity.algorithm());

        let locators = pkt.locators();
        let seq = pkt.seq();
        let ack = pkt.ack();
        let echo_req = pkt.find(|p| match p {
            Param::EchoRequest(n) => Some(*n),
            _ => None,
        });
        let echo_resp = pkt.find(|p| match p {
            Param::EchoResponse(n) => Some(*n),
            _ => None,
        });

        // Case 1: peer announces a new locator (it moved).
        if let (Some(new_loc), Some(peer_seq)) = (locators.first().copied(), seq) {
            let nonce = api.random_u64();
            mobility.seq += 1;
            mobility.verify = Some(PendingVerify {
                nonce,
                new_locator: new_loc,
                seq_ours: mobility.seq,
            });
            let params = vec![
                Param::Seq(mobility.seq),
                Param::Ack(vec![peer_seq]),
                Param::EchoRequest(nonce),
            ];
            let reply = seal(
                &self.identity,
                api,
                PacketType::Update,
                peer,
                params,
                Some(&keys.hmac_out),
            );
            // Address verification: the echo goes to the *new* locator.
            let src = api.local_locator(&new_loc).ok_or(HipNoLocator)?;
            send_control(api, verify_cost + sign_cost, &reply, src, new_loc);
            api.trace_state(|| format!("UPDATE: {peer:?} moved to {new_loc}, verifying"));
            return Ok(());
        }

        // Case 2: we moved; the peer echoes — answer from the new address.
        if let (Some(nonce), Some(peer_seq)) = (echo_req, seq) {
            if ack.is_some_and(|a| a.contains(&mobility.seq)) {
                assoc.rtx.cancel(api, &mut self.timers);
            }
            mobility.in_flight = false;
            let params = vec![Param::Ack(vec![peer_seq]), Param::EchoResponse(nonce)];
            let reply = seal(
                &self.identity,
                api,
                PacketType::Update,
                peer,
                params,
                Some(&keys.hmac_out),
            );
            // Return routability: the response must leave from the
            // locator we announced, proving we are reachable there.
            let work = verify_cost + sign_cost;
            send_control(api, work, &reply, assoc.local_locator, assoc.peer_locator);
            self.stats.updates_completed += 1;
            return Ok(());
        }

        // Case 3: echo response completes our verification of their move.
        let pv = mobility.verify.as_ref();
        let Some(pv) = pv.filter(|pv| echo_resp == Some(pv.nonce) && wire.src == pv.new_locator)
        else {
            return Err(HipUnexpected);
        };
        assoc.peer_locator = pv.new_locator;
        if ack.is_some_and(|a| a.contains(&pv.seq_ours)) {
            mobility.verify = None;
        }
        api.charge_cpu(verify_cost);
        self.stats.updates_completed += 1;
        api.trace_state(|| format!("UPDATE: verified {peer:?} at {}", wire.src));
        Ok(())
    }

    fn on_close(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) -> Verdict {
        let peer = pkt.sender_hit;
        let Some(Keyed(keys, _)) = self.assocs.get(&peer).map(|a| &a.state) else {
            return Err(HipUnexpected);
        };
        if !verify_sealed(pkt, &keys.peer_hi, &keys.hmac_in) {
            return Err(HipAuth);
        }
        let nonce = pkt.find(|p| match p {
            Param::EchoRequest(n) => Some(*n),
            _ => None,
        });
        let params = nonce.map(Param::EchoResponse).into_iter().collect();
        let ack = seal(
            &self.identity,
            api,
            PacketType::CloseAck,
            peer,
            params,
            Some(&keys.hmac_out),
        );
        let dst = wire.src;
        let src = api.local_locator(&dst).ok_or(HipNoLocator)?;
        let costs = self.config.costs;
        let work = costs.verify(keys.peer_hi.algorithm()) + costs.sign(self.identity.algorithm());
        send_control(api, work, &ack, src, dst);
        self.teardown(api, &peer);
        self.stats.closes += 1;
        Ok(())
    }

    fn on_close_ack(&mut self, api: &mut ShimApi, pkt: &HipPacket) -> Verdict {
        let peer = pkt.sender_hit;
        let Some(&Keyed(_, Closing(nonce))) = self.assocs.get(&peer).map(|a| &a.state) else {
            return Err(HipUnexpected);
        };
        let got = pkt.find(|p| match p {
            Param::EchoResponse(n) => Some(*n),
            _ => None,
        });
        if got != Some(nonce) {
            return Err(HipUnexpected);
        }
        self.teardown(api, &peer);
        self.stats.closes += 1;
        Ok(())
    }

    /// Removes the association with `peer` and releases it.
    fn teardown(&mut self, api: &mut ShimApi, peer: &Hit) {
        if let Some(old) = self.assocs.remove(peer) {
            self.release(api, old);
        }
    }

    /// Cancels `old`'s retransmission and releases its inbound SPI;
    /// returns the upper-layer packets it had queued.
    fn release(&mut self, api: &mut ShimApi, mut old: Association) -> Vec<Packet> {
        old.rtx.cancel(api, &mut self.timers);
        let (keys, phase) = match old.state {
            I1Sent(pending) => return pending.queued,
            Keyed(keys, phase) => (keys, phase),
        };
        self.spi_in.remove(&keys.sa_in.spi);
        match phase {
            I2Sent(_, pending) => pending.queued,
            Established(..) | Closing(_) => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Handles an upper-layer packet for an identity: encapsulates it,
    /// queues it behind a running BEX, or starts one.
    fn send_upper(&mut self, api: &mut ShimApi, pkt: &Packet) -> Verdict {
        // Resolve the destination identity to a peer HIT.
        let lsi_peer = || match pkt.dst {
            IpAddr::V4(lsi) => self.lsi.hit_of(&lsi),
            IpAddr::V6(_) => None,
        };
        let peer = Hit::from_ip(&pkt.dst)
            .or_else(lsi_peer)
            .ok_or(HipUnknownPeer)?;
        match self.assocs.get_mut(&peer).map(|a| &mut a.state) {
            Some(Keyed(_, Established(..))) => {
                self.encap_and_send(api, peer, pkt, SimDuration::ZERO)
            }
            Some(I1Sent(p) | Keyed(_, I2Sent(_, p))) => {
                p.queued.push(pkt.clone());
                Ok(())
            }
            // Teardown would drop it unsent.
            Some(Keyed(_, Closing(_))) => Err(HipClosing),
            None => {
                let route = self.bex_route(api, &peer)?;
                self.initiate(api, peer, route, vec![pkt.clone()]);
                Ok(())
            }
        }
    }

    fn encap_and_send(
        &mut self,
        api: &mut ShimApi,
        peer: Hit,
        pkt: &Packet,
        after: SimDuration,
    ) -> Verdict {
        let mode = if netsim::addr::is_lsi(&pkt.dst) {
            InnerMode::Lsi
        } else {
            InnerMode::Hit
        };
        let costs = self.config.costs;
        let assoc = self.assocs.get_mut(&peer).ok_or(EspNoSa)?;
        let Keyed(_, Established(sa_out, _)) = &mut assoc.state else {
            return Err(EspNoSa);
        };
        let payload_len = pkt.payload.wire_len();
        let iv_seed = api.random_u64();
        let esp = sa_out.encapsulate(mode, &pkt.payload, iv_seed);
        let wire = Packet::new(assoc.local_locator, assoc.peer_locator, Payload::Esp(esp));
        let mut work = costs.symmetric(payload_len) + costs.hit_lookup;
        if mode == InnerMode::Lsi {
            work += costs.lsi_translation;
        }
        let delay = api.charge_cpu(work) + after;
        self.stats.esp_out += 1;
        self.stats.esp_bytes_out += payload_len as u64;
        let m = api.metrics();
        m.observe_cached(&mut self.encrypt_hist, "esp.encrypt", work.as_nanos());
        m.observe_cached(
            &mut self.out_bytes_hist,
            "esp.out_bytes",
            payload_len as u64,
        );
        api.send_wire(delay, wire);
        Ok(())
    }

    fn on_esp(
        &mut self,
        api: &mut ShimApi,
        esp: &netsim::packet::EspPacket,
        wire: &Packet,
    ) -> Verdict {
        let Some(&peer) = self.spi_in.get(&esp.spi) else {
            // The sender believes this SPI is live — most likely we
            // crashed and lost the SA. Tell it so it can re-run BEX
            // instead of blackholing ESP forever; at most one NOTIFY per
            // SPI per window so a blast of stale ESP costs one reply.
            self.notify_stale_spi(api, esp.spi, wire.src);
            return Err(EspNoSa);
        };
        if self.firewall.check(&peer) == Action::Deny {
            return Err(HipFirewall);
        }
        let costs = self.config.costs;
        let my_lsi = self.my_lsi;
        let peer_lsi = self.lsi.lsi_for(peer);
        let assoc = self.assocs.get_mut(&peer).ok_or(EspNoSa)?;
        let Keyed(keys, _) = &mut assoc.state else {
            return Err(EspNoSa);
        };
        let sa = &mut keys.sa_in;
        let (mode, payload) = sa.decapsulate(esp).map_err(|e| match e {
            EspError::Replay => EspReplay,
            _ => EspAuth,
        })?;
        let len = payload.wire_len();
        let inner =
            crate::esp::rebuild_inner(sa, mode, payload, IpAddr::V4(peer_lsi), IpAddr::V4(my_lsi));
        let mut work = costs.symmetric(len) + costs.hit_lookup;
        if mode == InnerMode::Lsi {
            work += costs.lsi_translation;
        }
        let delay = api.charge_cpu(work);
        self.stats.esp_in += 1;
        self.stats.esp_bytes_in += len as u64;
        let m = api.metrics();
        m.observe_cached(&mut self.decrypt_hist, "esp.decrypt", work.as_nanos());
        m.observe_cached(&mut self.in_bytes_hist, "esp.in_bytes", len as u64);
        api.deliver_upper(delay, inner);
        Ok(())
    }

    /// Sends NOTIFY(stale SPI) to `dst`: ESP arrived for an SPI we have
    /// no SA for. Rate-limited to one per SPI per [`NOTIFY_WINDOW`].
    fn notify_stale_spi(&mut self, api: &mut ShimApi, spi: u32, dst: IpAddr) {
        let now = api.now();
        // An entry whose window has expired decides nothing (it reads as
        // absent below), so sweeping those out changes no send.
        if now.since(self.notify_swept) >= NOTIFY_WINDOW {
            self.notify_limiter
                .retain(|_, t| now.since(*t) < NOTIFY_WINDOW);
            self.notify_swept = now;
        }
        if self
            .notify_limiter
            .get(&spi)
            .is_some_and(|t| now.since(*t) < NOTIFY_WINDOW)
        {
            return;
        }
        self.notify_limiter.insert(spi, now);
        let Some(src) = api.local_locator(&dst) else {
            return;
        };
        // Unsigned by necessity: we lost the keys along with the SA. The
        // receiver applies its own off-path checks before acting.
        let notify = HipPacket::new(
            PacketType::Notify,
            self.hit(),
            Hit::NULL,
            vec![Param::EspInfo {
                old_spi: spi,
                new_spi: 0,
            }],
        );
        send_control(api, self.config.costs.hit_lookup, &notify, src, dst);
        self.stats.notifies_sent += 1;
        api.trace_state(|| format!("NOTIFY: stale SPI {spi:08x} -> {dst}"));
    }

    /// Handles NOTIFY(stale SPI): the peer cannot decrypt what we send
    /// on `old_spi` — it crashed and lost its SAs. The NOTIFY is
    /// unauthenticated (the peer has no keys anymore), so it is only
    /// honored if it arrives from the exact locator of an established
    /// association *and* echoes the SPI we are currently sending on —
    /// two values an off-path attacker does not know. Tear the
    /// association down and re-run the base exchange.
    fn on_notify(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) -> Verdict {
        let (old_spi, _) = pkt.esp_info().ok_or(HipMalformed)?;
        let peer = self.assocs.iter().find_map(|(h, a)| match &a.state {
            Keyed(_, Established(sa_out, _)) if a.peer_locator == wire.src => {
                (sa_out.spi == old_spi).then_some(*h)
            }
            _ => None,
        });
        let peer = peer.ok_or(HipUnexpected)?;
        self.teardown(api, &peer);
        self.stats.stale_spi_rebex += 1;
        api.trace_state(|| format!("NOTIFY: peer {peer:?} lost SPI {old_spi:08x}, re-running BEX"));
        let route = self.bex_route(api, &peer)?;
        self.initiate(api, peer, route, Vec::new());
        Ok(())
    }

    /// Handles a packet from the wire; `Err` names why it was dropped.
    fn on_wire(&mut self, api: &mut ShimApi, pkt: &Packet) -> Verdict {
        let bytes = match &pkt.payload {
            Payload::Esp(esp) => return self.on_esp(api, esp, pkt),
            Payload::HipControl(bytes) => bytes,
            _ => return Err(HipUnexpected),
        };
        let hip = HipPacket::decode(bytes).ok_or(HipDecode)?;
        // Control packets addressed to another HIT are not ours.
        if !hip.receiver_hit.is_null() && hip.receiver_hit != self.hit() {
            return Err(HipNotOurs);
        }
        match hip.packet_type {
            PacketType::I1 => self.on_i1(api, &hip, pkt),
            PacketType::R1 => self.on_r1(api, &hip, pkt),
            PacketType::I2 => self.on_i2(api, &hip, pkt),
            PacketType::R2 => self.on_r2(api, &hip),
            PacketType::Update => self.on_update(api, &hip, pkt),
            PacketType::Close => self.on_close(api, &hip, pkt),
            PacketType::CloseAck => self.on_close_ack(api, &hip),
            PacketType::RegResponse => {
                self.rvs_registered = true;
                Ok(())
            }
            PacketType::Notify => self.on_notify(api, &hip, pkt),
            PacketType::RegRequest => Err(HipUnexpected),
        }
    }

    /// Records a packet the shim refused: traced and counted under
    /// `reason`, and in the [`HipStats`] field that counts it, if any.
    fn record_drop(&mut self, api: &mut ShimApi, pkt: &Packet, reason: DropReason) {
        api.drop_packet(pkt, reason);
        let s = &mut self.stats;
        let field = match reason {
            EspReplay => &mut s.drops_replay,
            EspAuth | HipAuth | HipDecode => &mut s.drops_auth,
            HipFirewall => &mut s.drops_firewall,
            EspNoSa => &mut s.drops_no_sa,
            _ => return,
        };
        *field += 1;
    }

    // ------------------------------------------------------------------
    // Public control operations
    // ------------------------------------------------------------------

    /// Announces a new local locator to all established peers (VM
    /// migration / mobility). Called by the cloud layer after moving the
    /// host's interface.
    pub fn relocate(&mut self, api: &mut ShimApi, new_locator: IpAddr) {
        for (&peer, assoc) in &mut self.assocs {
            let Keyed(keys, Established(_, mobility)) = &mut assoc.state else {
                continue;
            };
            assoc.local_locator = new_locator;
            mobility.seq += 1;
            mobility.in_flight = true;
            let params = vec![
                Param::Locator(vec![encode_locator(&new_locator)]),
                Param::Seq(mobility.seq),
            ];
            let update = seal(
                &self.identity,
                api,
                PacketType::Update,
                peer,
                params,
                Some(&keys.hmac_out),
            );
            let work = self.config.costs.sign(self.identity.algorithm());
            let dst = assoc.peer_locator;
            let bytes = send_control(api, work, &update, new_locator, dst);
            self.stats.updates_sent += 1;
            assoc.rtx.arm(api, &mut self.timers, peer, bytes, dst, 0);
        }
    }

    /// Gracefully closes the association with `peer`.
    pub fn close(&mut self, api: &mut ShimApi, peer: Hit) {
        let Some(assoc) = self.assocs.get_mut(&peer) else {
            return;
        };
        let Keyed(keys, phase @ Established(..)) = &mut assoc.state else {
            return;
        };
        let nonce = api.random_u64();
        *phase = Closing(nonce);
        let params = vec![Param::EchoRequest(nonce)];
        let close = seal(
            &self.identity,
            api,
            PacketType::Close,
            peer,
            params,
            Some(&keys.hmac_out),
        );
        let work = self.config.costs.sign(self.identity.algorithm());
        send_control(api, work, &close, assoc.local_locator, assoc.peer_locator);
    }
}

/// Sends a control packet after charging `work`; returns its bytes for
/// retransmission.
fn send_control(
    api: &mut ShimApi,
    work: SimDuration,
    pkt: &HipPacket,
    src: IpAddr,
    dst: IpAddr,
) -> bytes::Bytes {
    let bytes = pkt.encode();
    let delay = api.charge_cpu(work);
    api.send_wire(
        delay,
        Packet::new(src, dst, Payload::HipControl(bytes.clone())),
    );
    bytes
}

/// Signs a packet's parameter list: appends HMAC (if `hmac_key`) and
/// SIGNATURE in the right order and returns the finished packet.
fn seal(
    identity: &HostIdentity,
    api: &mut ShimApi,
    ptype: PacketType,
    receiver: Hit,
    mut params: Vec<Param>,
    hmac_key: Option<&HmacKey>,
) -> HipPacket {
    let me = identity.hit();
    if let Some(key) = hmac_key {
        let unsealed = HipPacket::new(ptype, me, receiver, params.clone());
        let covered = unsealed.bytes_before(param_type::HMAC);
        params.push(Param::Hmac(key.mac(&covered)));
    }
    let with_mac = HipPacket::new(ptype, me, receiver, params.clone());
    let covered = with_mac.bytes_before(param_type::HIP_SIGNATURE);
    let sig = identity.sign(&covered, api.rng());
    params.push(Param::Signature(sig));
    HipPacket::new(ptype, me, receiver, params)
}

/// Verifies HMAC (against `hmac_key`) and signature (against `hi`).
fn verify_sealed(pkt: &HipPacket, hi: &PublicHi, hmac_key: &HmacKey) -> bool {
    let Some(mac) = pkt.hmac() else { return false };
    let covered = pkt.bytes_before(param_type::HMAC);
    let expect = hmac_key.mac(&covered);
    if !sim_crypto::hmac::verify_mac(&expect, mac) {
        return false;
    }
    let Some(sig) = pkt.signature() else {
        return false;
    };
    let covered = pkt.bytes_before(param_type::HIP_SIGNATURE);
    hi.verify(&covered, sig)
}

/// KEYMAT → the I→R and R→I keys: each a control-packet HMAC
/// transcript and an SA's keys.
fn derive_keys(kij: &[u8], my: Hit, peer: Hit, i: u64, j: u64) -> [(HmacKey, SaKeys); 2] {
    let km = keymat(kij, &my.0, &peer.0, i, j, 160);
    let enc_i2r: [u8; 16] = km[64..80].try_into().expect("slice");
    let auth_i2r: [u8; 32] = km[80..112].try_into().expect("slice");
    let enc_r2i: [u8; 16] = km[112..128].try_into().expect("slice");
    let auth_r2i: [u8; 32] = km[128..160].try_into().expect("slice");
    // Control-packet HMAC keys become cached transcripts right here,
    // so every later seal/verify clones midstates instead of
    // re-deriving the key block.
    [
        (HmacKey::new(&km[0..32]), (enc_i2r, auth_i2r)),
        (HmacKey::new(&km[32..64]), (enc_r2i, auth_r2i)),
    ]
}

impl L35Shim for HipShim {
    fn start(&mut self, api: &mut ShimApi) {
        api.register_virtual_addr(self.hit().to_ip());
        api.register_virtual_addr(IpAddr::V4(self.my_lsi));
        self.build_r1_pool(api);
        // Register with the rendezvous server, if configured.
        if let Some(rvs) = self.config.rvs {
            let Some(src) = api.local_locator(&rvs) else {
                return;
            };
            // Monotonic SEQ: the RVS rejects any replayed registration
            // whose sequence does not exceed the last accepted one.
            self.reg_seq += 1;
            let reg_seq = self.reg_seq;
            let params = vec![
                Param::HostId(self.identity.public().to_bytes()),
                Param::Locator(vec![encode_locator(&src)]),
                Param::Seq(reg_seq),
            ];
            let reg = seal(
                &self.identity,
                api,
                PacketType::RegRequest,
                Hit::NULL,
                params,
                None,
            );
            let work = self.config.costs.sign(self.identity.algorithm());
            send_control(api, work, &reg, src, rvs);
        }
    }

    fn handles_dst(&self, dst: &IpAddr) -> bool {
        netsim::addr::is_identity(dst)
    }

    fn outbound(&mut self, pkt: Packet, api: &mut ShimApi) {
        if let Err(reason) = self.send_upper(api, &pkt) {
            self.record_drop(api, &pkt, reason);
        }
    }

    fn inbound(&mut self, pkt: Packet, api: &mut ShimApi) {
        if let Err(reason) = self.on_wire(api, &pkt) {
            self.record_drop(api, &pkt, reason);
        }
    }

    fn on_timer(&mut self, token: u64, api: &mut ShimApi) {
        // A cancelled retransmission never fires, so a known token is its
        // association's armed retransmission, now due.
        let Some(peer) = self.timers.remove(&token) else {
            return;
        };
        let max = self.config.max_retransmits;
        let Some(assoc) = self.assocs.get_mut(&peer) else {
            return;
        };
        let Some(rtx) = assoc.rtx.armed.take() else {
            return;
        };
        // Established, only an UPDATE whose echo has not come is resent.
        let established = match &assoc.state {
            Keyed(_, Established(_, mobility)) if !mobility.in_flight => return,
            Keyed(_, Established(..)) => true,
            _ => false,
        };
        if rtx.tries >= max {
            // Give up.
            self.stats.bex_failed += u64::from(!established);
            self.teardown(api, &peer);
            api.trace_state(|| format!("BEX/UPDATE with {peer:?} failed after {max} retries"));
            api.metrics().add_name("hip.bex.exhausted", 1);
            // The peer is unreachable: fail TCP connections addressed to
            // its HIT or LSI so applications see an explicit connect
            // error instead of hanging on a silently dead exchange.
            let lsi = self.lsi.lsi_for(peer);
            api.notify_unreachable(peer.to_ip());
            api.notify_unreachable(IpAddr::V4(lsi));
            return;
        }
        let src = assoc.local_locator;
        self.stats.retransmissions += 1;
        api.send_wire(
            SimDuration::ZERO,
            Packet::new(src, rtx.dst, Payload::HipControl(rtx.bytes.clone())),
        );
        let tries = rtx.tries + 1;
        assoc
            .rtx
            .arm(api, &mut self.timers, peer, rtx.bytes, rtx.dst, tries);
    }

    fn on_crash(&mut self, api: &mut ShimApi) {
        // Lose all runtime protocol state: associations, SAs, the R1
        // pool and outstanding retransmissions. Identity, the peer
        // directory and LSI mappings survive — they model configuration
        // baked into the image, not state. `start` rebuilds the R1 pool
        // and re-registers with the RVS (reg_seq stays monotonic so the
        // replay guard holds across the restart).
        for a in self.assocs.values_mut() {
            a.rtx.cancel(api, &mut self.timers);
        }
        self.assocs.clear();
        self.spi_in.clear();
        self.r1_pool.clear();
        self.active_puzzles.clear();
        self.notify_limiter.clear();
        self.rvs_registered = false;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
