//! Slave-side descriptor → resource tracking.
//!
//! When the slave shares aligned outcomes it never opens anything itself;
//! the descriptor numbers it holds are the *master's*. If it later
//! diverges, it must execute syscalls on those descriptors against its
//! private overlay — which requires reconstructing the resource: "before
//! the slave executes a file read, the file needs to be cloned, opened,
//! and then seeked to the right position" (paper §4.2). This map tracks,
//! for every descriptor the slave program holds, what it refers to and how
//! far it has consumed it.

use crate::resolved::ResourceView;
use std::collections::HashMap;

/// What a descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Resource {
    /// A file, as normalised path segments, and the open flags (0 read /
    /// 1 write / 2 append).
    File { path: Vec<String>, flags: i64 },
    /// An outbound peer connection.
    Peer { host: String },
    /// An accepted client connection: which port and the accept index.
    Client { port: i64, index: usize },
}

impl Resource {
    /// Borrows the resource for source matching.
    pub fn view(&self) -> ResourceView<'_> {
        match self {
            Resource::File { path, .. } => ResourceView::File(path),
            Resource::Peer { host } => ResourceView::Peer(host),
            Resource::Client { port, .. } => ResourceView::Client(*port),
        }
    }
}

/// Per-descriptor state.
#[derive(Debug, Clone)]
pub(crate) struct FdInfo {
    pub resource: Resource,
    /// Characters consumed so far (read/recv position).
    pub pos: usize,
    /// The overlay's own descriptor once reconstructed.
    pub overlay_fd: Option<i64>,
}

/// The slave's descriptor table shadow.
#[derive(Debug, Default)]
pub(crate) struct SlaveFdMap {
    map: HashMap<i64, FdInfo>,
    /// Clients this slave has *observed* being accepted (shared outcomes).
    pub accept_count: usize,
    /// Clients the overlay itself has accepted (reconstruction progress).
    pub overlay_accepts: usize,
}

impl SlaveFdMap {
    /// Records a successful `open`.
    pub fn on_open(&mut self, fd: i64, path: &str, flags: i64) {
        if fd >= 0 {
            self.map.insert(
                fd,
                FdInfo {
                    resource: Resource::File {
                        path: ldx_vos::normalize_path(path),
                        flags,
                    },
                    pos: 0,
                    overlay_fd: None,
                },
            );
        }
    }

    /// Records a successful `connect`.
    pub fn on_connect(&mut self, fd: i64, host: &str) {
        if fd >= 0 {
            self.map.insert(
                fd,
                FdInfo {
                    resource: Resource::Peer {
                        host: host.to_string(),
                    },
                    pos: 0,
                    overlay_fd: None,
                },
            );
        }
    }

    /// Records a successful `accept`.
    pub fn on_accept(&mut self, fd: i64, port: i64) {
        if fd >= 0 {
            let index = self.accept_count;
            self.accept_count += 1;
            self.map.insert(
                fd,
                FdInfo {
                    resource: Resource::Client { port, index },
                    pos: 0,
                    overlay_fd: None,
                },
            );
        }
    }

    /// Records consumed characters on `fd` (read/recv results).
    pub fn on_read(&mut self, fd: i64, chars: usize) {
        if let Some(info) = self.map.get_mut(&fd) {
            info.pos += chars;
        }
    }

    /// Records a `seek`.
    pub fn on_seek(&mut self, fd: i64, pos: i64) {
        if let Some(info) = self.map.get_mut(&fd) {
            info.pos = pos.max(0) as usize;
        }
    }

    /// Records a `close`.
    pub fn on_close(&mut self, fd: i64) -> Option<FdInfo> {
        self.map.remove(&fd)
    }

    /// Looks a descriptor up.
    pub fn get(&self, fd: i64) -> Option<&FdInfo> {
        self.map.get(&fd)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, fd: i64) -> Option<&mut FdInfo> {
        self.map.get_mut(&fd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_open_read_seek_close() {
        let mut m = SlaveFdMap::default();
        m.on_open(3, "//f/", 0);
        m.on_read(3, 5);
        assert_eq!(m.get(3).unwrap().pos, 5);
        m.on_seek(3, 1);
        assert_eq!(m.get(3).unwrap().pos, 1);
        let info = m.on_close(3).unwrap();
        assert_eq!(
            info.resource,
            Resource::File {
                path: vec!["f".to_string()],
                flags: 0
            }
        );
        assert!(m.get(3).is_none());
    }

    #[test]
    fn failed_opens_not_tracked() {
        let mut m = SlaveFdMap::default();
        m.on_open(-1, "/missing", 0);
        assert!(m.get(-1).is_none());
    }

    #[test]
    fn accept_indices_increment() {
        let mut m = SlaveFdMap::default();
        m.on_accept(3, 80);
        m.on_accept(4, 80);
        let Resource::Client { index, .. } = m.get(4).unwrap().resource else {
            panic!()
        };
        assert_eq!(index, 1);
        assert_eq!(m.accept_count, 2);
    }

    #[test]
    fn unknown_fd_updates_are_noops() {
        let mut m = SlaveFdMap::default();
        m.on_read(9, 4);
        m.on_seek(9, 2);
        assert!(m.on_close(9).is_none());
    }
}
