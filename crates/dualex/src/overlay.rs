//! The slave's private world.
//!
//! While the executions are aligned the slave never touches an OS: it
//! copies the master's outcomes, so the descriptors it holds are the
//! master's. When they diverge it must neither interfere with the master's
//! world nor lose the pre-divergence state, which lives in the master. The
//! paper solves this with resource tainting and cloning (§7): "When a
//! tainted resource is accessed by the other execution, LDX will create a
//! copy of the related resource(s) so that the master and the slave
//! operate on their own copies, without causing interference." A
//! descriptor obtained while coupled is rebuilt on its first private use:
//! "the file needs to be cloned, opened, and then seeked to the right
//! position" (§4.2).
//!
//! [`Overlay`] owns all of that behind one lock:
//!
//! * a private [`VosState`] built from the same configuration, handing out
//!   descriptors from [`FD_START`] up;
//! * the descriptor shadow: what every descriptor the slave program holds
//!   refers to, which thread opened it, how far it has been consumed, and
//!   its private twin once rebuilt;
//! * the diverged paths. A path diverges on its first private access,
//!   which clones it from the master's live world; from then on it is
//!   tainted, so no call on it is shared again. Peers are cloned the same
//!   way on their first private `connect`;
//! * the tainted lock ids, whose grant order diverged.
//!
//! Clones come from the master's *live* world at the slave's first
//! access, so they include whatever the master did since the divergence
//! point. A rebuilt file descriptor is seeked to the slave's own coupled
//! position; a cloned peer continues from the master's current script
//! position, an approximation when the master has moved on in the
//! conversation.
//!
//! The overlay emits the `Taint` and `CowClone` flight events itself; the
//! slave's hooks keep only the Alg. 2 decisions.

use crate::couple::Coupling;
use crate::recorder::{FlightEvent, ResourceId};
use crate::report::Role;
use crate::resolved::{fd_arg, Resource, ResourceView};
use ldx_lang::Syscall;
use ldx_runtime::{from_sys_ret, to_sys_args, ThreadKey, Trap, Value};
use ldx_vos::{normalize_path, SysArg, Vos, VosConfig, VosState};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// First descriptor the private world hands out: a high range disjoint
/// from master-issued descriptors, so a private `open` can never collide
/// with a master descriptor the slave program still holds.
const FD_START: i64 = 1_000_003;

/// A descriptor the slave program holds.
#[derive(Debug, Clone)]
struct Shadow {
    resource: Resource,
    /// The thread whose call returned the descriptor.
    owner: ThreadKey,
    /// A file's open flags (0 read, 1 write, 2 append).
    flags: i64,
    /// A client's accept index.
    index: usize,
    /// Characters consumed so far (read/recv position).
    pos: usize,
    /// The private world's descriptor, once the slave has one.
    private: Option<i64>,
}

/// The slave's private world (see the module docs).
pub(crate) struct Overlay {
    world: Mutex<World>,
}

struct World {
    master: Arc<Vos>,
    state: VosState,
    /// Held descriptors by number. A number can be held twice: the master
    /// reuses a closed number, and a shared outcome hands it to a slave
    /// thread while another slave thread, on its own schedule, still holds
    /// the first descriptor. A thread sees the last one it opened itself,
    /// else the last one opened (see [`pick`]).
    fds: HashMap<i64, Vec<Shadow>>,
    /// Clients the slave has seen accepted, shared or private.
    accepts: usize,
    /// Clients the private world itself has accepted.
    private_accepts: usize,
    /// Diverged paths, normalised: cloned from the master and tainted.
    paths: HashSet<String>,
    /// Peers cloned from the master.
    peers: HashSet<String>,
    /// Lock ids whose grant order diverged.
    locks: HashSet<i64>,
}

impl Overlay {
    /// Creates the overlay over `master`, with `config` as the fallback
    /// initial world (the configuration the master was built from).
    pub fn new(master: Arc<Vos>, config: &VosConfig) -> Self {
        Overlay {
            world: Mutex::new(World {
                master,
                state: VosState::build_with_fd_start(config, FD_START),
                fds: HashMap::new(),
                accepts: 0,
                private_accepts: 0,
                paths: HashSet::new(),
                peers: HashSet::new(),
                locks: HashSet::new(),
            }),
        }
    }

    /// Takes the master's aligned `outcome` for the slave's call, updating
    /// the descriptor shadow. False, with nothing updated, when the call
    /// touches a tainted path: it must then run privately (paper §7:
    /// "future syscalls on the resource cannot be coupled").
    pub fn share(&self, thread: &ThreadKey, sys: Syscall, args: &[Value], outcome: &Value) -> bool {
        let mut world = self.world.lock();
        if world.touches_tainted(thread, sys, args) {
            return false;
        }
        world.track(thread, sys, args, outcome, false);
        true
    }

    /// Executes a syscall against the private world: clones what it
    /// touches from the master on first access and rebuilds descriptors
    /// obtained while coupled.
    pub fn exec(
        &self,
        coupling: &Coupling,
        thread: &ThreadKey,
        sys: Syscall,
        args: &[Value],
    ) -> Result<Value, Trap> {
        let mut world = self.world.lock();
        let outcome = match sys {
            Syscall::Open => {
                args[0].as_str()?;
                args[1].as_int()?;
                world.run(coupling, sys, args)?
            }
            Syscall::Connect => {
                args[0].as_str()?;
                world.run(coupling, sys, args)?
            }
            Syscall::Accept => {
                args[0].as_int()?;
                // Catch up the private backlog to the coupled position.
                while world.private_accepts < world.accepts {
                    let _ = world.run(coupling, sys, args);
                    world.private_accepts += 1;
                }
                let outcome = world.run(coupling, sys, args)?;
                world.private_accepts += 1;
                outcome
            }
            Syscall::Read | Syscall::Recv => {
                let fd = args[0].as_int()?;
                if (0..=2).contains(&fd) {
                    return Ok(Value::str(""));
                }
                let Some(private) = world.private_fd(coupling, thread, fd) else {
                    return Ok(Value::str(""));
                };
                let n = args[1].as_int()?;
                world.run(coupling, sys, &[Value::Int(private), Value::Int(n)])?
            }
            Syscall::Write | Syscall::Send => {
                let fd = args[0].as_int()?;
                args[1].as_str()?;
                if (0..=2).contains(&fd) {
                    world.run(coupling, sys, args)?
                } else if let Some(private) = world.private_fd(coupling, thread, fd) {
                    world.run(coupling, sys, &[Value::Int(private), args[1].clone()])?
                } else {
                    Value::Int(-1)
                }
            }
            Syscall::Seek => {
                args[0].as_int()?;
                args[1].as_int()?;
                Value::Int(0)
            }
            Syscall::Close => {
                let fd = args[0].as_int()?;
                Value::Int(if world.fds.contains_key(&fd) { 0 } else { -1 })
            }
            Syscall::Stat
            | Syscall::Mkdir
            | Syscall::Unlink
            | Syscall::Readdir
            | Syscall::Rename
            | Syscall::GetPid
            | Syscall::Time
            | Syscall::Random
            | Syscall::Sleep => world.run(coupling, sys, args)?,
            other => {
                return Err(Trap::Aborted {
                    reason: format!("decoupled execution of unexpected syscall `{other}`"),
                })
            }
        };
        world.track(thread, sys, args, &outcome, true);
        Ok(outcome)
    }

    /// Runs `f` on what descriptor `fd` refers to for `thread`, if the
    /// slave holds it.
    pub fn with_resource<R>(
        &self,
        thread: &ThreadKey,
        fd: Option<i64>,
        f: impl FnOnce(Option<ResourceView>) -> R,
    ) -> R {
        let world = self.world.lock();
        f(fd.and_then(|fd| world.shadow(fd, thread))
            .map(|s| s.resource.view()))
    }

    /// Whether lock `id`'s grant order has diverged.
    pub fn lock_tainted(&self, id: i64) -> bool {
        self.world.lock().locks.contains(&id)
    }

    /// Marks lock `id` as tainted, recording the first divergence as a
    /// flight event.
    pub fn taint_lock(&self, coupling: &Coupling, id: i64) {
        if self.world.lock().locks.insert(id) {
            coupling.flight(Role::Slave, || FlightEvent::Taint {
                resource: ResourceId::Lock(id),
            });
        }
    }
}

/// The paths a call names.
fn paths(sys: Syscall, args: &[Value]) -> impl Iterator<Item = &str> {
    let n = match sys {
        Syscall::Open | Syscall::Stat | Syscall::Mkdir | Syscall::Unlink | Syscall::Readdir => 1,
        Syscall::Rename => 2,
        _ => 0,
    };
    args.iter().take(n).filter_map(|a| match a {
        Value::Str(s) => Some(&**s),
        _ => None,
    })
}

fn path_key(path: &str) -> String {
    normalize_path(path).join("/")
}

/// Which of the descriptors held under one number `thread` means: the
/// last it opened itself, else the last opened.
fn pick(held: &[Shadow], thread: &ThreadKey) -> Option<usize> {
    held.iter()
        .rposition(|s| s.owner == *thread)
        .or(held.len().checked_sub(1))
}

impl World {
    fn shadow(&self, fd: i64, thread: &ThreadKey) -> Option<&Shadow> {
        let held = self.fds.get(&fd)?;
        held.get(pick(held, thread)?)
    }

    fn shadow_mut(&mut self, fd: i64, thread: &ThreadKey) -> Option<&mut Shadow> {
        let held = self.fds.get_mut(&fd)?;
        let i = pick(held, thread)?;
        held.get_mut(i)
    }

    /// Runs a call in the private world, first cloning from the master the
    /// paths it names and the peer it connects to.
    fn run(&mut self, coupling: &Coupling, sys: Syscall, args: &[Value]) -> Result<Value, Trap> {
        for path in paths(sys, args) {
            self.diverge(coupling, path);
        }
        if let (Syscall::Connect, Some(Value::Str(host))) = (sys, args.first()) {
            if self.peers.insert(host.to_string()) {
                if let Some(peer) = self.master.peer_snapshot(host) {
                    self.state.install_peer(host, peer);
                }
            }
        }
        Ok(from_sys_ret(self.state.syscall(sys, &to_sys_args(args)?)?))
    }

    /// Runs a descriptor-creating call privately: the new descriptor, or
    /// `None` when the call failed.
    fn run_fd(&mut self, coupling: &Coupling, sys: Syscall, args: &[Value]) -> Option<i64> {
        match self.run(coupling, sys, args) {
            Ok(Value::Int(fd)) if fd >= 0 => Some(fd),
            _ => None,
        }
    }

    /// Diverges `path` on its first private access: taints it and clones
    /// the master's current node, or tombstones the configured fallback
    /// when the master has none, so the worlds agree about absence.
    fn diverge(&mut self, coupling: &Coupling, path: &str) {
        let key = path_key(path);
        if !self.paths.insert(key.clone()) {
            return;
        }
        coupling.flight(Role::Slave, || FlightEvent::Taint {
            resource: ResourceId::Path(key),
        });
        match self.master.clone_node(path) {
            Some(node) => {
                self.state.install_node(path, node);
            }
            None => {
                self.state.remove_node(path);
            }
        }
    }

    /// The private twin of descriptor `fd`. A descriptor the slave got
    /// from the master is rebuilt on first use: a file is cloned, opened
    /// and seeked (paper §4.2), a peer reconnected, and a client
    /// re-accepted at its index with the coupled input skipped.
    fn private_fd(&mut self, coupling: &Coupling, thread: &ThreadKey, fd: i64) -> Option<i64> {
        let shadow = self.shadow(fd, thread)?.clone();
        if shadow.private.is_some() {
            return shadow.private;
        }
        let pos = shadow.pos;
        let cloned = |resource| {
            coupling.flight(Role::Slave, || FlightEvent::CowClone {
                resource,
                pos: pos as u64,
            })
        };
        let private = match &shadow.resource {
            Resource::File(segs) => {
                let path = segs.join("/");
                self.diverge(coupling, &path);
                cloned(ResourceId::Path(path.clone()));
                let mode = if shadow.flags == 0 { 0 } else { 2 };
                let private = self.run_fd(
                    coupling,
                    Syscall::Open,
                    &[Value::str(path), Value::Int(mode)],
                )?;
                if shadow.flags == 0 && pos > 0 {
                    let seek = [Value::Int(private), Value::Int(pos as i64)];
                    let _ = self.run(coupling, Syscall::Seek, &seek);
                }
                private
            }
            Resource::Peer(host) => {
                cloned(ResourceId::Peer(host.clone()));
                self.run_fd(coupling, Syscall::Connect, &[Value::str(host.as_str())])?
            }
            Resource::Client(port) => {
                cloned(ResourceId::Client(*port));
                let mut private = -1;
                while self.private_accepts <= shadow.index {
                    let Value::Int(got) = self
                        .run(coupling, Syscall::Accept, &[Value::Int(*port)])
                        .ok()?
                    else {
                        return None;
                    };
                    self.private_accepts += 1;
                    private = got;
                }
                if private < 0 {
                    return None;
                }
                if pos > 0 {
                    let skip = [Value::Int(private), Value::Int(pos as i64)];
                    let _ = self.run(coupling, Syscall::Recv, &skip);
                }
                private
            }
        };
        if let Some(shadow) = self.shadow_mut(fd, thread) {
            shadow.private = Some(private);
        }
        Some(private)
    }

    fn touches_tainted(&self, thread: &ThreadKey, sys: Syscall, args: &[Value]) -> bool {
        if paths(sys, args).any(|p| self.paths.contains(&path_key(p))) {
            return true;
        }
        if !matches!(
            sys,
            Syscall::Read | Syscall::Write | Syscall::Seek | Syscall::Close
        ) {
            return false;
        }
        match fd_arg(args).and_then(|fd| self.shadow(fd, thread)) {
            Some(Shadow {
                resource: Resource::File(segs),
                ..
            }) => self.paths.contains(&segs.join("/")),
            _ => false,
        }
    }

    /// Updates the descriptor shadow with `thread`'s call outcome, shared
    /// or `private`ly executed.
    fn track(
        &mut self,
        thread: &ThreadKey,
        sys: Syscall,
        args: &[Value],
        outcome: &Value,
        private: bool,
    ) {
        match (sys, args.first(), outcome) {
            (Syscall::Open, Some(Value::Str(path)), Value::Int(fd)) => {
                let flags = args[1].as_int().unwrap_or(0);
                let file = Resource::File(normalize_path(path));
                self.opened(thread, *fd, file, flags, 0, private);
            }
            (Syscall::Connect, Some(Value::Str(host)), Value::Int(fd)) => {
                let peer = Resource::Peer(host.to_string());
                self.opened(thread, *fd, peer, 0, 0, private);
            }
            (Syscall::Accept, Some(Value::Int(port)), Value::Int(fd)) if *fd >= 0 => {
                let index = self.accepts;
                self.accepts += 1;
                self.opened(thread, *fd, Resource::Client(*port), 0, index, private);
            }
            (Syscall::Read | Syscall::Recv, Some(Value::Int(fd)), Value::Str(s)) => {
                if let Some(shadow) = self.shadow_mut(*fd, thread) {
                    shadow.pos += s.chars().count();
                }
            }
            (Syscall::Seek, Some(Value::Int(fd)), _) => {
                let (Ok(pos), Some(shadow)) = (args[1].as_int(), self.shadow_mut(*fd, thread))
                else {
                    return;
                };
                shadow.pos = pos.max(0) as usize;
                if let Some(private) = shadow.private {
                    let _ = self
                        .state
                        .syscall(sys, &[SysArg::Int(private), SysArg::Int(pos)]);
                }
            }
            (Syscall::Close, Some(Value::Int(fd)), _) => {
                if let Some(private) = self.closed(*fd, thread).and_then(|s| s.private) {
                    let _ = self.state.syscall(sys, &[SysArg::Int(private)]);
                }
            }
            _ => {}
        }
    }

    fn opened(
        &mut self,
        thread: &ThreadKey,
        fd: i64,
        resource: Resource,
        flags: i64,
        index: usize,
        private: bool,
    ) {
        if fd >= 0 {
            let shadow = Shadow {
                resource,
                owner: thread.clone(),
                flags,
                index,
                pos: 0,
                private: private.then_some(fd),
            };
            self.fds.entry(fd).or_default().push(shadow);
        }
    }

    fn closed(&mut self, fd: i64, thread: &ThreadKey) -> Option<Shadow> {
        let held = self.fds.get_mut(&fd)?;
        let shadow = held.remove(pick(held, thread)?);
        if held.is_empty() {
            self.fds.remove(&fd);
        }
        Some(shadow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_vos::{PeerBehavior, SysRet};

    fn s(v: &str) -> Value {
        Value::str(v)
    }
    fn i(v: i64) -> Value {
        Value::Int(v)
    }

    fn setup() -> (Arc<Vos>, Overlay, Coupling) {
        let cfg = VosConfig::new()
            .file("/shared.txt", "from-config")
            .peer("host", PeerBehavior::Script(vec!["r1".into(), "r2".into()]));
        let master = Arc::new(Vos::new(&cfg));
        let overlay = Overlay::new(Arc::clone(&master), &cfg);
        (master, overlay, Coupling::new(true))
    }

    fn master_open(master: &Vos, path: &str, flags: i64) -> i64 {
        let args = [SysArg::Str(path.into()), SysArg::Int(flags)];
        let Ok(SysRet::Int(fd)) = master.syscall(Syscall::Open, &args) else {
            panic!("master open of {path}")
        };
        fd
    }

    fn master_write(master: &Vos, path: &str, data: &str) {
        let fd = master_open(master, path, 1);
        let args = [SysArg::Int(fd), SysArg::Str(data.into())];
        master.syscall(Syscall::Write, &args).unwrap();
    }

    fn private_contents(o: &Overlay, path: &str) -> Option<String> {
        o.world.lock().state.file_contents(path)
    }

    fn root() -> ThreadKey {
        ThreadKey::root()
    }

    fn shadow(o: &Overlay, fd: i64) -> Option<Shadow> {
        o.world.lock().shadow(fd, &root()).cloned()
    }

    fn taint_events(c: &Coupling) -> usize {
        let log = c.take_flight_log();
        let lane = log.lane(Role::Slave);
        lane.iter().filter(|e| e.kind() == "taint").count()
    }

    #[test]
    fn first_access_sees_masters_current_content() {
        let (master, o, c) = setup();
        // The master wrote to the file before the divergence.
        master_write(&master, "/shared.txt", "master-write");
        // The slave's private read sees the master's content, not the
        // stale configured one.
        let fd = o
            .exec(&c, &root(), Syscall::Open, &[s("/shared.txt"), i(0)])
            .unwrap();
        let data = o.exec(&c, &root(), Syscall::Read, &[fd, i(64)]).unwrap();
        assert_eq!(data, s("master-write"));
    }

    #[test]
    fn slave_writes_never_reach_master() {
        let (master, o, c) = setup();
        let fd = o
            .exec(&c, &root(), Syscall::Open, &[s("/shared.txt"), i(1)])
            .unwrap();
        o.exec(&c, &root(), Syscall::Write, &[fd, s("slave-only")])
            .unwrap();
        assert_eq!(private_contents(&o, "/shared.txt").unwrap(), "slave-only");
        assert_eq!(master.file_contents("/shared.txt").unwrap(), "from-config");
    }

    #[test]
    fn clone_happens_once() {
        let (master, o, c) = setup();
        // First access clones.
        o.exec(&c, &root(), Syscall::Open, &[s("/shared.txt"), i(0)])
            .unwrap();
        // The master changes afterwards...
        master_write(&master, "/shared.txt", "late");
        // ...but the path is tainted: nothing on it is shared, and a later
        // private open still sees the slave's own copy.
        assert!(!o.share(&root(), Syscall::Open, &[s("/shared.txt"), i(0)], &i(3)));
        assert_eq!(private_contents(&o, "/shared.txt").unwrap(), "from-config");
        let fd = o
            .exec(&c, &root(), Syscall::Open, &[s("/shared.txt"), i(0)])
            .unwrap();
        let data = o.exec(&c, &root(), Syscall::Read, &[fd, i(64)]).unwrap();
        assert_eq!(data, s("from-config"));
        assert_eq!(taint_events(&c), 1);
    }

    #[test]
    fn master_deletion_tombstones_slave_fallback() {
        let (master, o, c) = setup();
        let path = [SysArg::Str("/shared.txt".into())];
        master.syscall(Syscall::Unlink, &path).unwrap();
        assert_eq!(
            o.exec(&c, &root(), Syscall::Open, &[s("/shared.txt"), i(0)])
                .unwrap(),
            i(-1),
            "the slave must agree the file is gone"
        );
    }

    #[test]
    fn peer_state_cloned_from_master_position() {
        let (master, o, c) = setup();
        // The master consumed the first scripted line.
        let Ok(SysRet::Int(ms)) = master.syscall(Syscall::Connect, &[SysArg::Str("host".into())])
        else {
            panic!()
        };
        master
            .syscall(Syscall::Recv, &[SysArg::Int(ms), SysArg::Int(16)])
            .unwrap();
        // The slave connects privately: it continues from the master's
        // script position (r2), not from the beginning.
        let sock = o.exec(&c, &root(), Syscall::Connect, &[s("host")]).unwrap();
        let got = o
            .exec(&c, &root(), Syscall::Recv, &[sock.clone(), i(16)])
            .unwrap();
        assert_eq!(got, s("r2"));
        // And the slave's sends do not reach the master's transcript.
        o.exec(&c, &root(), Syscall::Send, &[sock, s("x")]).unwrap();
        assert!(master.sent_to("host").is_empty());
    }

    #[test]
    fn tracks_open_read_seek_close() {
        let (_, o, _) = setup();
        assert!(o.share(&root(), Syscall::Open, &[s("//f/"), i(0)], &i(3)));
        assert!(o.share(&root(), Syscall::Read, &[i(3), i(5)], &s("abcde")));
        assert_eq!(shadow(&o, 3).unwrap().pos, 5);
        assert!(o.share(&root(), Syscall::Seek, &[i(3), i(1)], &i(0)));
        let opened = shadow(&o, 3).unwrap();
        assert_eq!(opened.pos, 1);
        assert_eq!(opened.resource, Resource::File(vec!["f".to_string()]));
        assert_eq!((opened.flags, opened.private), (0, None));
        assert!(o.share(&root(), Syscall::Close, &[i(3)], &i(0)));
        assert!(shadow(&o, 3).is_none());
    }

    #[test]
    fn a_reused_number_means_each_threads_own_descriptor() {
        let (_, o, _) = setup();
        let worker = root().child(0);
        let resource = |t: &ThreadKey| o.world.lock().shadow(3, t).map(|s| s.resource.clone());
        let peer = Resource::Peer("host".to_string());
        let file = Resource::File(vec!["shared.txt".to_string()]);
        assert!(o.share(&root(), Syscall::Connect, &[s("host")], &i(3)));
        // The master closed 3 and reused it for the worker, whose open the
        // slave shares while its root thread still holds the first 3.
        assert!(o.share(&worker, Syscall::Open, &[s("/shared.txt"), i(0)], &i(3)));
        assert_eq!(resource(&root()), Some(peer));
        assert_eq!(resource(&worker), Some(file.clone()));
        assert_eq!(
            resource(&root().child(1)),
            Some(file.clone()),
            "the last opened"
        );
        assert!(o.share(&root(), Syscall::Close, &[i(3)], &i(0)));
        assert_eq!(resource(&root()), Some(file));
        assert!(o.share(&worker, Syscall::Close, &[i(3)], &i(0)));
        assert!(o.world.lock().fds.is_empty());
    }

    #[test]
    fn failed_opens_not_tracked() {
        let (_, o, _) = setup();
        assert!(o.share(&root(), Syscall::Open, &[s("/missing"), i(0)], &i(-1)));
        assert!(shadow(&o, -1).is_none());
    }

    #[test]
    fn accept_indices_increment() {
        let (_, o, _) = setup();
        o.share(&root(), Syscall::Accept, &[i(80)], &i(3));
        o.share(&root(), Syscall::Accept, &[i(80)], &i(4));
        let client = shadow(&o, 4).unwrap();
        assert_eq!((client.resource, client.index), (Resource::Client(80), 1));
        assert_eq!(o.world.lock().accepts, 2);
    }

    #[test]
    fn unknown_fd_updates_are_noops() {
        let (_, o, _) = setup();
        o.share(&root(), Syscall::Read, &[i(9), i(4)], &s("abcd"));
        o.share(&root(), Syscall::Seek, &[i(9), i(2)], &i(0));
        o.share(&root(), Syscall::Close, &[i(9)], &i(-1));
        assert!(o.world.lock().fds.is_empty());
    }

    #[test]
    fn taint_normalizes_paths() {
        let (_, o, c) = setup();
        // A descriptor on `a/b` obtained while coupled.
        assert!(o.share(&root(), Syscall::Open, &[s("a/b"), i(0)], &i(7)));
        o.exec(&c, &root(), Syscall::Stat, &[s("/a//b/")]).unwrap();
        assert!(!o.share(&root(), Syscall::Open, &[s("a/b"), i(0)], &i(8)));
        assert!(!o.share(&root(), Syscall::Read, &[i(7), i(1)], &s("x")));
        assert!(o.share(&root(), Syscall::Open, &[s("/a"), i(0)], &i(8)));
        o.exec(&c, &root(), Syscall::Stat, &[s("a/./b")]).unwrap();
        assert_eq!(taint_events(&c), 1);
    }
}
