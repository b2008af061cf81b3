"""Module catalog: the Ansible modules known to this library.

The catalog plays three roles, mirroring the knowledge the paper's system
embeds:

* **FQCN normalization** for the Ansible Aware metric (``copy`` →
  ``ansible.builtin.copy``) — see :mod:`repro.ansible.fqcn`;
* **schema validation** (a task must name a known module; free-form string
  arguments are only legal for the handful of free-form modules);
* **corpus synthesis** — the generators in :mod:`repro.dataset.synthesis`
  draw modules and realistic parameter values from these specs.

The parameter specs are faithful subsets of the real modules' options (names,
types, choices, defaults), covering the options that actually appear in
Galaxy-style content.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ParameterSpec:
    """One module option.

    Attributes:
        name: option name as written in YAML.
        type: value type — one of ``str``, ``int``, ``bool``, ``list``,
            ``dict``, ``path``.
        required: whether the module rejects tasks lacking this option.
        choices: closed set of accepted values (empty = open).
        aliases: alternative option spellings accepted by the module.
    """

    name: str
    type: str = "str"
    required: bool = False
    choices: tuple[str, ...] = ()
    aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class ModuleSpec:
    """One Ansible module.

    Attributes:
        fqcn: fully qualified collection name, e.g. ``ansible.builtin.apt``.
        category: coarse functional family used by the corpus synthesizer.
        description: one-line summary (feeds synthetic ``name:`` fields).
        parameters: accepted options.
        free_form: module accepts a raw command string (``command``-family).
        legacy_aliases: additional short names that resolve to this module
            (e.g. ``docker_container`` for ``community.docker.docker_container``).
    """

    fqcn: str
    category: str
    description: str
    parameters: tuple[ParameterSpec, ...] = ()
    free_form: bool = False
    legacy_aliases: tuple[str, ...] = ()

    @property
    def collection(self) -> str:
        """Collection part of the FQCN (``ansible.builtin``)."""
        return self.fqcn.rsplit(".", 1)[0]

    @property
    def short_name(self) -> str:
        """Module part of the FQCN (``apt``)."""
        return self.fqcn.rsplit(".", 1)[1]

    def parameter(self, name: str) -> ParameterSpec | None:
        """Look up a parameter by name or alias."""
        for spec in self.parameters:
            if spec.name == name or name in spec.aliases:
                return spec
        return None

    @property
    def required_parameters(self) -> tuple[ParameterSpec, ...]:
        return tuple(spec for spec in self.parameters if spec.required)


def _p(name: str, type: str = "str", required: bool = False, choices: tuple[str, ...] = (), aliases: tuple[str, ...] = ()) -> ParameterSpec:
    return ParameterSpec(name=name, type=type, required=required, choices=choices, aliases=aliases)


_PRESENT_ABSENT = ("present", "absent")
_STARTED_STOPPED = ("started", "stopped", "restarted", "reloaded")


def _builtin(short: str, category: str, description: str, parameters: tuple[ParameterSpec, ...], free_form: bool = False) -> ModuleSpec:
    return ModuleSpec(
        fqcn=f"ansible.builtin.{short}",
        category=category,
        description=description,
        parameters=parameters,
        free_form=free_form,
    )


CATALOG: tuple[ModuleSpec, ...] = (
    # ----- packaging --------------------------------------------------
    _builtin("apt", "packaging", "Manage apt packages", (
        _p("name", "list", aliases=("pkg", "package")),
        _p("state", choices=("present", "absent", "latest", "build-dep", "fixed")),
        _p("update_cache", "bool"),
        _p("cache_valid_time", "int"),
        _p("install_recommends", "bool"),
        _p("force_apt_get", "bool"),
        _p("dpkg_options"),
        _p("upgrade", choices=("dist", "full", "safe", "yes", "no")),
    )),
    _builtin("yum", "packaging", "Manage yum packages", (
        _p("name", "list", aliases=("pkg",)),
        _p("state", choices=("present", "absent", "latest", "installed", "removed")),
        _p("enablerepo", "list"),
        _p("disablerepo", "list"),
        _p("update_cache", "bool"),
        _p("disable_gpg_check", "bool"),
    )),
    _builtin("dnf", "packaging", "Manage dnf packages", (
        _p("name", "list", aliases=("pkg",)),
        _p("state", choices=("present", "absent", "latest", "installed", "removed")),
        _p("enablerepo", "list"),
        _p("disablerepo", "list"),
        _p("update_cache", "bool"),
    )),
    _builtin("package", "packaging", "Generic OS package manager", (
        _p("name", "list", required=True),
        _p("state", choices=("present", "absent", "latest")),
        _p("use"),
    )),
    _builtin("pip", "packaging", "Manage Python packages", (
        _p("name", "list"),
        _p("state", choices=("present", "absent", "latest", "forcereinstall")),
        _p("requirements", "path"),
        _p("virtualenv", "path"),
        _p("virtualenv_command"),
        _p("executable", "path"),
        _p("extra_args"),
    )),
    _builtin("apt_repository", "packaging", "Add or remove APT repositories", (
        _p("repo", required=True),
        _p("state", choices=_PRESENT_ABSENT),
        _p("filename"),
        _p("update_cache", "bool"),
        _p("mode"),
    )),
    _builtin("apt_key", "packaging", "Add or remove an apt key", (
        _p("url"),
        _p("id"),
        _p("keyserver"),
        _p("state", choices=_PRESENT_ABSENT),
        _p("keyring", "path"),
    )),
    _builtin("yum_repository", "packaging", "Add or remove YUM repositories", (
        _p("name", required=True),
        _p("description"),
        _p("baseurl", "list"),
        _p("gpgcheck", "bool"),
        _p("gpgkey", "list"),
        _p("enabled", "bool"),
        _p("state", choices=_PRESENT_ABSENT),
    )),
    _builtin("rpm_key", "packaging", "Add or remove a gpg key from the rpm db", (
        _p("key", required=True),
        _p("state", choices=_PRESENT_ABSENT),
        _p("fingerprint"),
    )),
    # ----- services ----------------------------------------------------
    _builtin("service", "services", "Manage services", (
        _p("name", required=True),
        _p("state", choices=_STARTED_STOPPED),
        _p("enabled", "bool"),
        _p("sleep", "int"),
        _p("pattern"),
        _p("arguments", aliases=("args",)),
    )),
    _builtin("systemd", "services", "Manage systemd units", (
        _p("name", aliases=("service", "unit")),
        _p("state", choices=_STARTED_STOPPED),
        _p("enabled", "bool"),
        _p("masked", "bool"),
        _p("daemon_reload", "bool"),
        _p("daemon_reexec", "bool"),
        _p("scope", choices=("system", "user", "global")),
    )),
    _builtin("service_facts", "services", "Return service state information", ()),
    _builtin("cron", "services", "Manage cron.d and crontab entries", (
        _p("name", required=True),
        _p("job"),
        _p("minute"),
        _p("hour"),
        _p("day"),
        _p("month"),
        _p("weekday"),
        _p("user"),
        _p("state", choices=_PRESENT_ABSENT),
        _p("cron_file", "path"),
        _p("special_time", choices=("annually", "daily", "hourly", "monthly", "reboot", "weekly", "yearly")),
    )),
    # ----- files -------------------------------------------------------
    _builtin("copy", "files", "Copy files to remote locations", (
        _p("src", "path"),
        _p("dest", "path", required=True),
        _p("content"),
        _p("owner"),
        _p("group"),
        _p("mode"),
        _p("backup", "bool"),
        _p("force", "bool"),
        _p("remote_src", "bool"),
        _p("validate"),
    )),
    _builtin("template", "files", "Template a file out to a target host", (
        _p("src", "path", required=True),
        _p("dest", "path", required=True),
        _p("owner"),
        _p("group"),
        _p("mode"),
        _p("backup", "bool"),
        _p("validate"),
        _p("variable_start_string"),
        _p("variable_end_string"),
    )),
    _builtin("file", "files", "Manage files and file properties", (
        _p("path", "path", required=True, aliases=("dest", "name")),
        _p("state", choices=("absent", "directory", "file", "hard", "link", "touch")),
        _p("owner"),
        _p("group"),
        _p("mode"),
        _p("recurse", "bool"),
        _p("src", "path"),
        _p("force", "bool"),
    )),
    _builtin("lineinfile", "files", "Manage lines in text files", (
        _p("path", "path", required=True, aliases=("dest", "destfile", "name")),
        _p("line"),
        _p("regexp"),
        _p("state", choices=_PRESENT_ABSENT),
        _p("insertafter"),
        _p("insertbefore"),
        _p("create", "bool"),
        _p("backup", "bool"),
        _p("backrefs", "bool"),
        _p("owner"),
        _p("group"),
        _p("mode"),
    )),
    _builtin("blockinfile", "files", "Insert/update/remove a block of lines", (
        _p("path", "path", required=True, aliases=("dest", "destfile", "name")),
        _p("block", aliases=("content",)),
        _p("marker"),
        _p("state", choices=_PRESENT_ABSENT),
        _p("insertafter"),
        _p("insertbefore"),
        _p("create", "bool"),
        _p("backup", "bool"),
    )),
    _builtin("replace", "files", "Replace all instances of a pattern in a file", (
        _p("path", "path", required=True, aliases=("dest", "destfile", "name")),
        _p("regexp", required=True),
        _p("replace"),
        _p("after"),
        _p("before"),
        _p("backup", "bool"),
    )),
    _builtin("stat", "files", "Retrieve file or file system status", (
        _p("path", "path", required=True, aliases=("dest", "name")),
        _p("follow", "bool"),
        _p("get_checksum", "bool"),
        _p("checksum_algorithm", choices=("md5", "sha1", "sha224", "sha256", "sha384", "sha512")),
    )),
    _builtin("find", "files", "Return a list of files based on criteria", (
        _p("paths", "list", required=True, aliases=("name", "path")),
        _p("patterns", "list"),
        _p("file_type", choices=("any", "directory", "file", "link")),
        _p("recurse", "bool"),
        _p("age"),
        _p("size"),
        _p("hidden", "bool"),
        _p("excludes", "list"),
    )),
    _builtin("fetch", "files", "Fetch files from remote nodes", (
        _p("src", "path", required=True),
        _p("dest", "path", required=True),
        _p("flat", "bool"),
        _p("fail_on_missing", "bool"),
    )),
    _builtin("slurp", "files", "Slurp a file from remote nodes", (
        _p("src", "path", required=True, aliases=("path",)),
    )),
    _builtin("tempfile", "files", "Create temporary files and directories", (
        _p("state", choices=("file", "directory")),
        _p("suffix"),
        _p("prefix"),
        _p("path", "path"),
    )),
    _builtin("unarchive", "files", "Unpack an archive", (
        _p("src", "path", required=True),
        _p("dest", "path", required=True),
        _p("remote_src", "bool"),
        _p("creates", "path"),
        _p("owner"),
        _p("group"),
        _p("mode"),
        _p("extra_opts", "list"),
    )),
    _builtin("assemble", "files", "Assemble fragments into a file", (
        _p("src", "path", required=True),
        _p("dest", "path", required=True),
        _p("delimiter"),
        _p("remote_src", "bool"),
        _p("owner"),
        _p("group"),
        _p("mode"),
    )),
    # ----- commands ----------------------------------------------------
    _builtin("command", "commands", "Execute commands on targets", (
        _p("cmd"),
        _p("argv", "list"),
        _p("chdir", "path"),
        _p("creates", "path"),
        _p("removes", "path"),
        _p("stdin"),
        _p("strip_empty_ends", "bool"),
    ), free_form=True),
    _builtin("shell", "commands", "Execute shell commands on targets", (
        _p("cmd"),
        _p("chdir", "path"),
        _p("creates", "path"),
        _p("removes", "path"),
        _p("executable", "path"),
        _p("stdin"),
    ), free_form=True),
    _builtin("raw", "commands", "Execute a low-down and dirty command", (
        _p("executable", "path"),
    ), free_form=True),
    _builtin("script", "commands", "Run a local script on a remote node", (
        _p("cmd"),
        _p("chdir", "path"),
        _p("creates", "path"),
        _p("removes", "path"),
        _p("executable", "path"),
    ), free_form=True),
    _builtin("make", "commands", "Run targets in a Makefile", (
        _p("chdir", "path", required=True),
        _p("target"),
        _p("params", "dict"),
        _p("file", "path"),
        _p("jobs", "int"),
    )),
    # ----- system ------------------------------------------------------
    _builtin("user", "system", "Manage user accounts", (
        _p("name", required=True, aliases=("user",)),
        _p("state", choices=_PRESENT_ABSENT),
        _p("uid", "int"),
        _p("group"),
        _p("groups", "list"),
        _p("append", "bool"),
        _p("shell", "path"),
        _p("home", "path"),
        _p("create_home", "bool"),
        _p("password"),
        _p("system", "bool"),
        _p("comment"),
        _p("remove", "bool"),
        _p("generate_ssh_key", "bool"),
    )),
    _builtin("group", "system", "Manage groups", (
        _p("name", required=True),
        _p("state", choices=_PRESENT_ABSENT),
        _p("gid", "int"),
        _p("system", "bool"),
    )),
    _builtin("hostname", "system", "Manage hostname", (
        _p("name", required=True),
        _p("use", choices=("systemd", "redhat", "debian", "alpine", "generic")),
    )),
    _builtin("timezone", "system", "Configure timezone setting", (
        _p("name"),
        _p("hwclock", choices=("local", "UTC"), aliases=("rtc",)),
    )),
    _builtin("reboot", "system", "Reboot a machine", (
        _p("reboot_timeout", "int"),
        _p("connect_timeout", "int"),
        _p("msg"),
        _p("pre_reboot_delay", "int"),
        _p("post_reboot_delay", "int"),
        _p("test_command"),
    )),
    _builtin("modprobe", "system", "Load or unload kernel modules", (
        _p("name", required=True),
        _p("state", choices=_PRESENT_ABSENT),
        _p("params"),
    )),
    _builtin("sysctl", "system", "Manage entries in sysctl.conf", (
        _p("name", required=True, aliases=("key",)),
        _p("value", aliases=("val",)),
        _p("state", choices=_PRESENT_ABSENT),
        _p("reload", "bool"),
        _p("sysctl_file", "path"),
        _p("sysctl_set", "bool"),
    )),
    _builtin("selinux", "system", "Change policy and state of SELinux", (
        _p("policy"),
        _p("state", required=True, choices=("disabled", "enforcing", "permissive")),
        _p("configfile", "path"),
    )),
    _builtin("seboolean", "system", "Toggles SELinux booleans", (
        _p("name", required=True),
        _p("state", "bool", required=True),
        _p("persistent", "bool"),
    )),
    _builtin("mount", "system", "Control active and configured mount points", (
        _p("path", "path", required=True, aliases=("name",)),
        _p("src", "path"),
        _p("fstype"),
        _p("opts"),
        _p("state", required=True, choices=("absent", "mounted", "present", "unmounted", "remounted")),
        _p("boot", "bool"),
        _p("dump"),
        _p("passno"),
    )),
    _builtin("authorized_key", "system", "Add or remove SSH authorized keys", (
        _p("user", required=True),
        _p("key", required=True),
        _p("state", choices=_PRESENT_ABSENT),
        _p("exclusive", "bool"),
        _p("manage_dir", "bool"),
        _p("path", "path"),
        _p("key_options"),
    )),
    _builtin("known_hosts", "system", "Add or remove a host from known_hosts", (
        _p("name", required=True, aliases=("host",)),
        _p("key"),
        _p("state", choices=_PRESENT_ABSENT),
        _p("path", "path"),
        _p("hash_host", "bool"),
    )),
    _builtin("iptables", "system", "Modify iptables rules", (
        _p("chain", choices=("INPUT", "FORWARD", "OUTPUT", "PREROUTING", "POSTROUTING")),
        _p("protocol"),
        _p("destination_port"),
        _p("source"),
        _p("jump"),
        _p("state", choices=_PRESENT_ABSENT),
        _p("comment"),
        _p("table", choices=("filter", "nat", "mangle", "raw", "security")),
    )),
    _builtin("pam_limits", "system", "Modify Linux PAM limits", (
        _p("domain", required=True),
        _p("limit_type", required=True, choices=("hard", "soft", "-")),
        _p("limit_item", required=True),
        _p("value", required=True),
    )),
    _builtin("alternatives", "system", "Manage alternative programs", (
        _p("name", required=True),
        _p("path", "path", required=True),
        _p("link", "path"),
        _p("priority", "int"),
        _p("state", choices=("present", "absent", "selected", "auto")),
    )),
    _builtin("locale_gen", "system", "Create or remove locale definitions", (
        _p("name", required=True),
        _p("state", choices=_PRESENT_ABSENT),
    )),
    # ----- source control / downloads -----------------------------------
    _builtin("git", "source_control", "Deploy software from git checkouts", (
        _p("repo", required=True, aliases=("name",)),
        _p("dest", "path", required=True),
        _p("version"),
        _p("clone", "bool"),
        _p("update", "bool"),
        _p("force", "bool"),
        _p("depth", "int"),
        _p("accept_hostkey", "bool"),
        _p("key_file", "path"),
    )),
    _builtin("subversion", "source_control", "Deploy a subversion repository", (
        _p("repo", required=True, aliases=("name", "repository")),
        _p("dest", "path"),
        _p("revision", aliases=("rev", "version")),
        _p("force", "bool"),
        _p("username"),
        _p("password"),
    )),
    _builtin("get_url", "net_tools", "Download files over HTTP/HTTPS/FTP", (
        _p("url", required=True),
        _p("dest", "path", required=True),
        _p("mode"),
        _p("owner"),
        _p("group"),
        _p("checksum"),
        _p("timeout", "int"),
        _p("validate_certs", "bool"),
        _p("force", "bool"),
        _p("headers", "dict"),
        _p("url_username"),
        _p("url_password"),
    )),
    _builtin("uri", "net_tools", "Interact with web services", (
        _p("url", required=True),
        _p("method", choices=("GET", "POST", "PUT", "DELETE", "HEAD", "PATCH", "OPTIONS")),
        _p("body"),
        _p("body_format", choices=("form-urlencoded", "json", "raw")),
        _p("status_code", "list"),
        _p("return_content", "bool"),
        _p("headers", "dict"),
        _p("timeout", "int"),
        _p("validate_certs", "bool"),
        _p("user"),
        _p("password"),
    )),
    # ----- control flow / utilities --------------------------------------
    _builtin("debug", "utilities", "Print statements during execution", (
        _p("msg"),
        _p("var"),
        _p("verbosity", "int"),
    )),
    _builtin("fail", "utilities", "Fail with a custom message", (
        _p("msg"),
    )),
    _builtin("assert", "utilities", "Asserts given expressions are true", (
        _p("that", "list", required=True),
        _p("fail_msg", aliases=("msg",)),
        _p("success_msg"),
        _p("quiet", "bool"),
    )),
    _builtin("set_fact", "utilities", "Set host variable(s) and fact(s)", (
        _p("cacheable", "bool"),
        _p("key_value", "dict"),
    )),
    _builtin("setup", "utilities", "Gather facts about remote hosts", (
        _p("gather_subset", "list"),
        _p("filter", "list"),
        _p("gather_timeout", "int"),
    )),
    _builtin("gather_facts", "utilities", "Gather facts about remote hosts", (
        _p("parallel", "bool"),
    )),
    _builtin("wait_for", "utilities", "Wait for a condition", (
        _p("host"),
        _p("port", "int"),
        _p("path", "path"),
        _p("state", choices=("absent", "drained", "present", "started", "stopped")),
        _p("timeout", "int"),
        _p("delay", "int"),
        _p("sleep", "int"),
        _p("search_regex"),
        _p("connect_timeout", "int"),
    )),
    _builtin("wait_for_connection", "utilities", "Wait until remote system is reachable", (
        _p("timeout", "int"),
        _p("delay", "int"),
        _p("sleep", "int"),
        _p("connect_timeout", "int"),
    )),
    _builtin("pause", "utilities", "Pause playbook execution", (
        _p("minutes", "int"),
        _p("seconds", "int"),
        _p("prompt"),
        _p("echo", "bool"),
    )),
    _builtin("include_tasks", "utilities", "Dynamically include a task list", (
        _p("file", "path"),
        _p("apply", "dict"),
    )),
    _builtin("import_tasks", "utilities", "Import a task list", (
        _p("file", "path"),
    )),
    _builtin("include_role", "utilities", "Load and execute a role", (
        _p("name", required=True),
        _p("tasks_from"),
        _p("vars_from"),
        _p("defaults_from"),
        _p("apply", "dict"),
        _p("public", "bool"),
    )),
    _builtin("import_role", "utilities", "Import a role into a play", (
        _p("name", required=True),
        _p("tasks_from"),
        _p("vars_from"),
    )),
    _builtin("include_vars", "utilities", "Load variables from files", (
        _p("file", "path"),
        _p("dir", "path"),
        _p("name"),
        _p("depth", "int"),
        _p("files_matching"),
    )),
    _builtin("add_host", "utilities", "Add a host to the in-memory inventory", (
        _p("name", required=True, aliases=("host", "hostname")),
        _p("groups", "list", aliases=("group", "groupname")),
    )),
    _builtin("group_by", "utilities", "Create inventory groups based on facts", (
        _p("key", required=True),
        _p("parents", "list"),
    )),
    _builtin("meta", "utilities", "Execute Ansible actions", (
        _p("free_form", choices=("clear_facts", "clear_host_errors", "end_host", "end_play", "flush_handlers", "noop", "refresh_inventory", "reset_connection", "end_batch")),
    ), free_form=True),
    _builtin("ping", "utilities", "Try to connect to host and verify usability", (
        _p("data"),
    )),
    _builtin("getent", "system", "Query the getent database", (
        _p("database", required=True),
        _p("key"),
        _p("split"),
        _p("fail_key", "bool"),
    )),
    # ----- ansible.posix -------------------------------------------------
    ModuleSpec("ansible.posix.firewalld", "system", "Manage firewalld rules", (
        _p("service"),
        _p("port"),
        _p("zone"),
        _p("state", required=True, choices=("absent", "disabled", "enabled", "present")),
        _p("permanent", "bool"),
        _p("immediate", "bool"),
        _p("rich_rule"),
    ), legacy_aliases=("firewalld",)),
    ModuleSpec("ansible.posix.synchronize", "files", "Wrapper around rsync", (
        _p("src", "path", required=True),
        _p("dest", "path", required=True),
        _p("mode", choices=("pull", "push")),
        _p("delete", "bool"),
        _p("recursive", "bool"),
        _p("rsync_opts", "list"),
        _p("archive", "bool"),
    ), legacy_aliases=("synchronize",)),
    ModuleSpec("ansible.posix.seboolean", "system", "Toggle SELinux booleans (posix)", (
        _p("name", required=True),
        _p("state", "bool", required=True),
        _p("persistent", "bool"),
    )),
    # ----- community.general ---------------------------------------------
    ModuleSpec("community.general.ufw", "system", "Manage firewall with UFW", (
        _p("rule", choices=("allow", "deny", "limit", "reject")),
        _p("port"),
        _p("proto", choices=("any", "tcp", "udp", "ipv6", "esp", "ah", "gre", "igmp")),
        _p("state", choices=("disabled", "enabled", "reloaded", "reset")),
        _p("policy", choices=("allow", "deny", "reject")),
        _p("direction", choices=("in", "incoming", "out", "outgoing", "routed")),
        _p("from_ip"),
        _p("comment"),
    ), legacy_aliases=("ufw",)),
    ModuleSpec("community.general.npm", "packaging", "Manage node.js packages with npm", (
        _p("name"),
        _p("path", "path"),
        _p("global", "bool"),
        _p("state", choices=("present", "absent", "latest")),
        _p("production", "bool"),
        _p("version"),
    ), legacy_aliases=("npm",)),
    ModuleSpec("community.general.gem", "packaging", "Manage Ruby gems", (
        _p("name", required=True),
        _p("state", choices=("present", "absent", "latest")),
        _p("version"),
        _p("user_install", "bool"),
        _p("executable", "path"),
    ), legacy_aliases=("gem",)),
    ModuleSpec("community.general.snap", "packaging", "Manage snap packages", (
        _p("name", "list", required=True),
        _p("state", choices=("present", "absent", "enabled", "disabled")),
        _p("classic", "bool"),
        _p("channel"),
    ), legacy_aliases=("snap",)),
    ModuleSpec("community.general.htpasswd", "web", "Manage htpasswd entries", (
        _p("path", "path", required=True, aliases=("dest", "destfile")),
        _p("name", required=True, aliases=("username",)),
        _p("password"),
        _p("state", choices=_PRESENT_ABSENT),
        _p("crypt_scheme"),
    ), legacy_aliases=("htpasswd",)),
    ModuleSpec("community.general.ini_file", "files", "Tweak settings in INI files", (
        _p("path", "path", required=True, aliases=("dest",)),
        _p("section", required=True),
        _p("option"),
        _p("value"),
        _p("state", choices=_PRESENT_ABSENT),
        _p("backup", "bool"),
        _p("mode"),
    ), legacy_aliases=("ini_file",)),
    ModuleSpec("community.general.xml", "files", "Manage bits and pieces of XML files", (
        _p("path", "path", aliases=("dest", "file")),
        _p("xpath"),
        _p("value"),
        _p("attribute"),
        _p("state", choices=_PRESENT_ABSENT),
        _p("pretty_print", "bool"),
    ), legacy_aliases=("xml",)),
    ModuleSpec("community.general.timezone", "system", "Configure timezone (community)", (
        _p("name"),
        _p("hwclock", choices=("local", "UTC")),
    )),
    ModuleSpec("community.general.alternatives", "system", "Manage alternatives (community)", (
        _p("name", required=True),
        _p("path", "path", required=True),
        _p("link", "path"),
        _p("priority", "int"),
    )),
    # ----- community.crypto ------------------------------------------------
    ModuleSpec("community.crypto.openssl_privatekey", "crypto", "Generate OpenSSL private keys", (
        _p("path", "path", required=True),
        _p("size", "int"),
        _p("type", choices=("RSA", "DSA", "ECC", "Ed25519", "X25519")),
        _p("state", choices=_PRESENT_ABSENT),
        _p("mode"),
        _p("owner"),
    ), legacy_aliases=("openssl_privatekey",)),
    ModuleSpec("community.crypto.openssl_csr", "crypto", "Generate OpenSSL certificate signing requests", (
        _p("path", "path", required=True),
        _p("privatekey_path", "path"),
        _p("common_name"),
        _p("country_name"),
        _p("organization_name"),
        _p("subject_alt_name", "list"),
    ), legacy_aliases=("openssl_csr",)),
    ModuleSpec("community.crypto.x509_certificate", "crypto", "Generate X.509 certificates", (
        _p("path", "path", required=True),
        _p("privatekey_path", "path"),
        _p("csr_path", "path"),
        _p("provider", choices=("selfsigned", "ownca", "acme", "entrust")),
        _p("selfsigned_not_after"),
    ), legacy_aliases=("x509_certificate",)),
    # ----- community.docker --------------------------------------------------
    ModuleSpec("community.docker.docker_container", "containers", "Manage Docker containers", (
        _p("name", required=True),
        _p("image"),
        _p("state", choices=("absent", "present", "started", "stopped", "healthy")),
        _p("ports", "list", aliases=("published_ports",)),
        _p("volumes", "list"),
        _p("env", "dict"),
        _p("restart_policy", choices=("always", "no", "on-failure", "unless-stopped")),
        _p("networks", "list"),
        _p("command"),
        _p("detach", "bool"),
        _p("pull", "bool"),
    ), legacy_aliases=("docker_container",)),
    ModuleSpec("community.docker.docker_image", "containers", "Manage Docker images", (
        _p("name", required=True),
        _p("tag"),
        _p("source", choices=("build", "load", "local", "pull")),
        _p("state", choices=_PRESENT_ABSENT),
        _p("build", "dict"),
        _p("force_source", "bool"),
    ), legacy_aliases=("docker_image",)),
    ModuleSpec("community.docker.docker_network", "containers", "Manage Docker networks", (
        _p("name", required=True),
        _p("state", choices=_PRESENT_ABSENT),
        _p("driver"),
        _p("ipam_config", "list"),
    ), legacy_aliases=("docker_network",)),
    ModuleSpec("community.docker.docker_compose_v2", "containers", "Manage docker compose projects", (
        _p("project_src", "path"),
        _p("state", choices=("absent", "present", "stopped", "restarted")),
        _p("pull", choices=("always", "missing", "never", "policy")),
        _p("files", "list"),
    )),
    # ----- kubernetes.core ----------------------------------------------------
    ModuleSpec("kubernetes.core.k8s", "cloud", "Manage Kubernetes objects", (
        _p("state", choices=("absent", "present", "patched")),
        _p("definition", "dict"),
        _p("src", "path"),
        _p("kind"),
        _p("name"),
        _p("namespace"),
        _p("api_version"),
        _p("kubeconfig", "path"),
        _p("wait", "bool"),
    ), legacy_aliases=("k8s",)),
    ModuleSpec("kubernetes.core.helm", "cloud", "Manage Helm chart deployments", (
        _p("name", required=True, aliases=("release_name",)),
        _p("chart_ref", "path"),
        _p("release_namespace", required=True, aliases=("namespace",)),
        _p("state", choices=_PRESENT_ABSENT),
        _p("values", "dict"),
        _p("chart_version"),
        _p("create_namespace", "bool"),
    ), legacy_aliases=("helm",)),
    # ----- databases ------------------------------------------------------------
    ModuleSpec("community.mysql.mysql_db", "database", "Manage MySQL databases", (
        _p("name", "list", required=True, aliases=("db",)),
        _p("state", choices=("absent", "dump", "import", "present")),
        _p("login_user"),
        _p("login_password"),
        _p("login_host"),
        _p("encoding"),
        _p("target", "path"),
    ), legacy_aliases=("mysql_db",)),
    ModuleSpec("community.mysql.mysql_user", "database", "Manage MySQL users", (
        _p("name", required=True, aliases=("user",)),
        _p("password"),
        _p("priv"),
        _p("host"),
        _p("state", choices=_PRESENT_ABSENT),
        _p("login_user"),
        _p("login_password"),
        _p("update_password", choices=("always", "on_create")),
    ), legacy_aliases=("mysql_user",)),
    ModuleSpec("community.postgresql.postgresql_db", "database", "Manage PostgreSQL databases", (
        _p("name", required=True, aliases=("db",)),
        _p("state", choices=("absent", "dump", "present", "rename", "restore")),
        _p("owner"),
        _p("encoding"),
        _p("template"),
        _p("login_user"),
        _p("login_password"),
    ), legacy_aliases=("postgresql_db",)),
    ModuleSpec("community.postgresql.postgresql_user", "database", "Manage PostgreSQL users", (
        _p("name", required=True, aliases=("user",)),
        _p("password"),
        _p("db", aliases=("login_db",)),
        _p("priv"),
        _p("role_attr_flags"),
        _p("state", choices=_PRESENT_ABSENT),
    ), legacy_aliases=("postgresql_user",)),
    # ----- cloud ------------------------------------------------------------------
    ModuleSpec("amazon.aws.ec2_instance", "cloud", "Manage EC2 instances", (
        _p("name"),
        _p("state", choices=("absent", "present", "restarted", "running", "started", "stopped", "terminated")),
        _p("instance_type"),
        _p("image_id"),
        _p("key_name"),
        _p("vpc_subnet_id"),
        _p("security_groups", "list"),
        _p("tags", "dict"),
        _p("region"),
        _p("wait", "bool"),
    ), legacy_aliases=("ec2_instance",)),
    ModuleSpec("amazon.aws.s3_bucket", "cloud", "Manage S3 buckets", (
        _p("name", required=True),
        _p("state", choices=_PRESENT_ABSENT),
        _p("policy", "dict"),
        _p("tags", "dict"),
        _p("versioning", "bool"),
        _p("region"),
    ), legacy_aliases=("s3_bucket",)),
    ModuleSpec("amazon.aws.route53", "cloud", "Manage DNS records in Route 53", (
        _p("state", required=True, choices=("present", "absent", "get", "create", "delete")),
        _p("zone"),
        _p("record", required=True),
        _p("type", required=True, choices=("A", "AAAA", "CNAME", "MX", "NS", "PTR", "SOA", "SPF", "SRV", "TXT")),
        _p("value", "list"),
        _p("ttl", "int"),
    ), legacy_aliases=("route53",)),
    # ----- windows -----------------------------------------------------------------
    ModuleSpec("ansible.windows.win_service", "windows", "Manage Windows services", (
        _p("name", required=True),
        _p("state", choices=("absent", "paused", "started", "stopped", "restarted")),
        _p("start_mode", choices=("auto", "delayed", "disabled", "manual")),
        _p("username"),
        _p("password"),
    ), legacy_aliases=("win_service",)),
    ModuleSpec("ansible.windows.win_package", "windows", "Install/uninstall Windows packages", (
        _p("path", "path"),
        _p("product_id"),
        _p("state", choices=_PRESENT_ABSENT),
        _p("arguments"),
        _p("creates_path", "path"),
    ), legacy_aliases=("win_package",)),
    ModuleSpec("ansible.windows.win_copy", "windows", "Copy files to remote Windows hosts", (
        _p("src", "path"),
        _p("dest", "path", required=True),
        _p("content"),
        _p("backup", "bool"),
        _p("force", "bool"),
        _p("remote_src", "bool"),
    ), legacy_aliases=("win_copy",)),
    # ----- network vendors (used in the paper's Fig. 2 example) ----------------------
    ModuleSpec("vyos.vyos.vyos_facts", "network", "Get facts about VyOS devices", (
        _p("gather_subset", "list"),
        _p("gather_network_resources", "list"),
    ), legacy_aliases=("vyos_facts",)),
    ModuleSpec("vyos.vyos.vyos_config", "network", "Manage VyOS configuration on remote devices", (
        _p("lines", "list", aliases=("commands",)),
        _p("src", "path"),
        _p("save", "bool"),
        _p("backup", "bool"),
        _p("match", choices=("line", "none")),
        _p("comment"),
    ), legacy_aliases=("vyos_config",)),
    ModuleSpec("cisco.ios.ios_config", "network", "Manage Cisco IOS configuration sections", (
        _p("lines", "list", aliases=("commands",)),
        _p("parents", "list"),
        _p("src", "path"),
        _p("save_when", choices=("always", "never", "modified", "changed")),
        _p("backup", "bool"),
        _p("match", choices=("line", "strict", "exact", "none")),
    ), legacy_aliases=("ios_config",)),
    ModuleSpec("cisco.ios.ios_facts", "network", "Collect facts from Cisco IOS devices", (
        _p("gather_subset", "list"),
        _p("gather_network_resources", "list"),
    ), legacy_aliases=("ios_facts",)),
    ModuleSpec("junipernetworks.junos.junos_config", "network", "Manage Juniper JUNOS configuration", (
        _p("lines", "list"),
        _p("src", "path"),
        _p("confirm", "int"),
        _p("comment"),
        _p("backup", "bool"),
        _p("update", choices=("merge", "override", "replace", "update")),
    ), legacy_aliases=("junos_config",)),
    ModuleSpec("ansible.netcommon.cli_command", "network", "Run a cli command on network devices", (
        _p("command", required=True),
        _p("prompt", "list"),
        _p("answer", "list"),
        _p("sendonly", "bool"),
    ), legacy_aliases=("cli_command",)),
    # ----- monitoring / web ------------------------------------------------------------
    ModuleSpec("community.grafana.grafana_dashboard", "monitoring", "Manage Grafana dashboards", (
        _p("grafana_url", required=True, aliases=("url",)),
        _p("state", choices=("present", "absent", "export")),
        _p("path", "path"),
        _p("overwrite", "bool"),
        _p("folder"),
        _p("grafana_api_key"),
    ), legacy_aliases=("grafana_dashboard",)),
    ModuleSpec("community.zabbix.zabbix_host", "monitoring", "Create/update/delete Zabbix hosts", (
        _p("host_name", required=True),
        _p("host_groups", "list"),
        _p("status", choices=("enabled", "disabled")),
        _p("state", choices=_PRESENT_ABSENT),
        _p("interfaces", "list"),
    ), legacy_aliases=("zabbix_host",)),
)


_BY_FQCN: dict[str, ModuleSpec] = {spec.fqcn: spec for spec in CATALOG}

_BY_SHORT_NAME: dict[str, ModuleSpec] = {}
for _spec in CATALOG:
    # builtin modules claim their bare short name (legacy pre-FQCN usage).
    if _spec.collection == "ansible.builtin":
        _BY_SHORT_NAME[_spec.short_name] = _spec
    for _alias in _spec.legacy_aliases:
        _BY_SHORT_NAME.setdefault(_alias, _spec)


def get_module(name: str) -> ModuleSpec | None:
    """Look up a module by FQCN or legacy short name; None when unknown."""
    if name in _BY_FQCN:
        return _BY_FQCN[name]
    return _BY_SHORT_NAME.get(name)
