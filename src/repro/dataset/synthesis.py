"""Synthetic Ansible content generator.

Stands in for the paper's scrape of Ansible Galaxy / GitHub / GitLab /
BigQuery.  Content is generated from *scenarios* — coherent multi-task
flows (deploy a service, harden SSH, set up a database, configure network
devices) over the service profiles in :mod:`repro.dataset.pools` — so that:

* task ``name:`` fields are faithful natural-language descriptions of the
  task body (the property the paper's prompt re-formulation exploits);
* tasks within a role/playbook are *correlated*, so context genuinely helps
  prediction (the property behind Table 5's ordering);
* a style model controls how much legacy/noisy form appears (short module
  names, inline ``k=v`` args, ``with_items`` loops), so Schema Correct is
  imperfect even on ground truth, matching the paper's caveat.

The generator is deterministic given a :class:`repro.utils.rng.SeededRng`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.ansible.fqcn import short_name
from repro.ansible.kv import render_kv
from repro.ansible.modules import get_module
from repro.dataset import pools
from repro.utils.rng import SeededRng


@dataclass(frozen=True)
class StyleProfile:
    """How "clean" generated YAML looks.

    Galaxy content (vetted by the community) is cleaner than the GitHub /
    GitLab long tail; the two presets below encode that difference.
    """

    fqcn_probability: float = 0.85
    kv_args_probability: float = 0.04
    legacy_loop_probability: float = 0.05
    become_probability: float = 0.35
    when_probability: float = 0.08
    tags_probability: float = 0.10


GALAXY_STYLE = StyleProfile()
GITHUB_STYLE = StyleProfile(
    fqcn_probability=0.55,
    kv_args_probability=0.12,
    legacy_loop_probability=0.15,
    become_probability=0.30,
    when_probability=0.10,
    tags_probability=0.08,
)


@dataclass
class TaskDraft:
    """A task before style is applied: always FQCN, always dict args."""

    name: str
    module: str
    args: dict[str, object] = field(default_factory=dict)
    keywords: dict[str, object] = field(default_factory=dict)

    def to_data(self, rng: SeededRng, style: StyleProfile) -> dict[str, object]:
        """Render to a task mapping, applying the style knobs."""
        module = self.module
        if not rng.bernoulli(style.fqcn_probability):
            module = short_name(module)
        args: object = dict(self.args)
        if (
            self.args
            and rng.bernoulli(style.kv_args_probability)
            and all(isinstance(value, (str, int, bool)) for value in self.args.values())
        ):
            args = render_kv(self.args)
        keywords = dict(self.keywords)
        if "loop" in keywords and rng.bernoulli(style.legacy_loop_probability):
            keywords["with_items"] = keywords.pop("loop")
        data: dict[str, object] = {"name": self.name}
        data[module] = args if args else None
        data.update(keywords)
        return data


_WHEN_GUARDS = (
    "ansible_os_family == 'Debian'",
    "ansible_os_family == 'RedHat'",
    "ansible_distribution == 'Ubuntu'",
    "inventory_hostname in groups['production']",
    "install_result is changed",
)

_TAGS = ("install", "config", "service", "security", "deploy", "setup")

# Module categories whose tasks need elevated privileges — `become` is tied
# to these, so it is *inferable* from the task body (and, through the
# file-level flag below, from preceding tasks in the same file).
_PRIVILEGED_CATEGORIES = frozenset({"packaging", "services", "system"})


@dataclass(frozen=True)
class FileContext:
    """Per-file stylistic choices, kept consistent across a file's tasks.

    Real roles are internally consistent — either every privileged task uses
    ``become`` or none does, and tags follow one theme.  This consistency is
    what makes the context genuinely informative for next-task prediction.
    """

    uses_become: bool
    tag_theme: str | None


def _file_context(rng: SeededRng, style: StyleProfile) -> FileContext:
    return FileContext(
        uses_become=rng.bernoulli(style.become_probability),
        tag_theme=rng.choice(_TAGS) if rng.bernoulli(style.tags_probability) else None,
    )


def _maybe_keywords(
    rng: SeededRng,
    style: StyleProfile,
    draft: TaskDraft,
    file_context: FileContext,
) -> TaskDraft:
    """Attach optional task keywords according to the file context."""
    keywords = dict(draft.keywords)
    spec = get_module(draft.module)
    privileged = spec is not None and spec.category in _PRIVILEGED_CATEGORIES
    if file_context.uses_become and privileged:
        keywords["become"] = True
    if rng.bernoulli(style.when_probability):
        keywords["when"] = rng.choice(_WHEN_GUARDS)
    if file_context.tag_theme is not None and rng.bernoulli(0.8):
        keywords["tags"] = [file_context.tag_theme]
    return replace(draft, keywords=keywords)


# ---------------------------------------------------------------------------
# Task builders.  Each returns a TaskDraft whose name describes its body.
# ---------------------------------------------------------------------------

_PKG_MANAGERS = ("ansible.builtin.apt", "ansible.builtin.yum", "ansible.builtin.dnf", "ansible.builtin.package")
_PM_HINTS = {"ansible.builtin.apt": "apt", "ansible.builtin.yum": "yum", "ansible.builtin.dnf": "dnf"}


def build_install(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    manager = rng.choice(_PKG_MANAGERS)
    latest = rng.bernoulli(0.25)
    if latest:
        name = f"Ensure {profile.package} is at the latest version"
        state = "latest"
    else:
        template = rng.choice(("Install {pkg}", "Install {pkg} package", "Ensure {pkg} is installed"))
        name = template.format(pkg=profile.package)
        state = "present"
    if manager in _PM_HINTS and rng.bernoulli(0.55):
        name += f" with {_PM_HINTS[manager]}"
    args: dict[str, object] = {"name": profile.package, "state": state}
    if manager == "ansible.builtin.apt" and rng.bernoulli(0.5):
        args["update_cache"] = True
    return TaskDraft(name=name, module=manager, args=args)


def build_install_utilities(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    count = rng.randint(2, 4)
    packages = rng.sample(pools.UTILITY_PACKAGES, count)
    manager = rng.choice(_PKG_MANAGERS[:3])
    return TaskDraft(
        name="Install required packages",
        module=manager,
        args={"name": "{{ item }}", "state": "present"},
        keywords={"loop": sorted(packages)},
    )


def build_template_config(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    template = rng.choice((
        "Write the {service} config file",
        "Deploy {service} configuration",
        "Configure {service}",
    ))
    args: dict[str, object] = {
        "src": profile.config_src,
        "dest": profile.config_dest,
    }
    if rng.bernoulli(0.6):
        args["owner"] = "root"
        args["group"] = "root"
    if rng.bernoulli(0.7):
        args["mode"] = rng.choice(pools.FILE_MODES)
    keywords: dict[str, object] = {}
    if rng.bernoulli(0.5):
        keywords["notify"] = f"Restart {profile.service}"
    return TaskDraft(
        name=template.format(service=profile.service),
        module="ansible.builtin.template",
        args=args,
        keywords=keywords,
    )


def build_create_directory(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    directory = profile.data_dir
    args: dict[str, object] = {"path": directory, "state": "directory"}
    if rng.bernoulli(0.6):
        args["owner"] = profile.user
        args["mode"] = "0755"
    return TaskDraft(
        name=f"Create {directory} directory",
        module="ansible.builtin.file",
        args=args,
    )


def build_create_user(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    user = profile.user if rng.bernoulli(0.5) else rng.choice(pools.USERS)
    args: dict[str, object] = {"name": user}
    if rng.bernoulli(0.5):
        args["shell"] = "/bin/bash"
    if rng.bernoulli(0.4):
        args["groups"] = rng.choice(pools.GROUPS)
        args["append"] = True
    if rng.bernoulli(0.3):
        args["system"] = True
    return TaskDraft(name=f"Create {user} user", module="ansible.builtin.user", args=args)


def build_start_service(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    module = rng.choice(("ansible.builtin.service", "ansible.builtin.systemd"))
    enabled = rng.bernoulli(0.7)
    if enabled:
        name = rng.choice((
            f"Start and enable {profile.service}",
            f"Ensure {profile.service} is running and enabled",
        ))
    else:
        name = rng.choice((f"Start {profile.service}", f"Start {profile.service} service"))
    args: dict[str, object] = {"name": profile.service, "state": "started"}
    if enabled:
        args["enabled"] = True
    return TaskDraft(name=name, module=module, args=args)


def build_firewall(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    port = profile.port or 8080
    if rng.bernoulli(0.6):
        return TaskDraft(
            name=f"Open port {port} in the firewall",
            module="ansible.posix.firewalld",
            args={"port": f"{port}/tcp", "permanent": True, "state": "enabled", "immediate": True},
        )
    return TaskDraft(
        name=f"Allow port {port} with ufw",
        module="community.general.ufw",
        args={"rule": "allow", "port": str(port), "proto": "tcp"},
    )


def build_download(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    url = rng.choice(pools.DOWNLOAD_URLS)
    artifact = url.rsplit("/", 1)[-1]
    dest = f"/tmp/{artifact}"
    args: dict[str, object] = {"url": url, "dest": dest}
    if rng.bernoulli(0.5):
        args["mode"] = "0644"
    return TaskDraft(name=f"Download {artifact}", module="ansible.builtin.get_url", args=args)


def build_unarchive(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    url = rng.choice(pools.DOWNLOAD_URLS)
    artifact = url.rsplit("/", 1)[-1]
    dest = rng.choice(pools.DEPLOY_DIRS)
    return TaskDraft(
        name=f"Extract {artifact} to {dest}",
        module="ansible.builtin.unarchive",
        args={"src": f"/tmp/{artifact}", "dest": dest, "remote_src": True},
    )


def build_git_checkout(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    repo = rng.choice(pools.REPO_URLS)
    project = repo.rsplit("/", 1)[-1].removesuffix(".git")
    dest = f"{rng.choice(pools.DEPLOY_DIRS)}/{project}"
    args: dict[str, object] = {"repo": repo, "dest": dest}
    if rng.bernoulli(0.5):
        args["version"] = rng.choice(("main", "master", "v1.2.0", "stable"))
    return TaskDraft(name=f"Clone {project} repository", module="ansible.builtin.git", args=args)


def build_lineinfile(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    settings = (
        ("PermitRootLogin", "no", "/etc/ssh/sshd_config"),
        ("PasswordAuthentication", "no", "/etc/ssh/sshd_config"),
        ("MaxAuthTries", "3", "/etc/ssh/sshd_config"),
        ("SELINUX", "enforcing", "/etc/selinux/config"),
    )
    key, value, path = rng.choice(settings)
    del profile
    return TaskDraft(
        name=f"Set {key} to {value} in {path.rsplit('/', 1)[-1]}",
        module="ansible.builtin.lineinfile",
        args={"path": path, "regexp": f"^{key}", "line": f"{key} {value}"},
    )


def build_cron(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    description, job = rng.choice(pools.CRON_JOBS)
    args: dict[str, object] = {
        "name": description,
        "job": job,
        "minute": str(rng.choice((0, 15, 30, 45))),
        "hour": str(rng.randint(0, 23)),
    }
    return TaskDraft(name=f"Schedule cron job to {description}", module="ansible.builtin.cron", args=args)


def build_sysctl(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    key, value = rng.choice(pools.SYSCTL_SETTINGS)
    return TaskDraft(
        name=f"Set sysctl {key} to {value}",
        module="ansible.builtin.sysctl",
        args={"name": key, "value": value, "state": "present", "reload": True},
    )


def build_timezone(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    zone = rng.choice(pools.TIMEZONES)
    return TaskDraft(name=f"Set timezone to {zone}", module="ansible.builtin.timezone", args={"name": zone})


def build_hostname(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    host = rng.choice(("web-01", "db-01", "app-01", "build-01", "mon-01"))
    return TaskDraft(name=f"Set hostname to {host}", module="ansible.builtin.hostname", args={"name": host})


def build_wait_for(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    port = profile.port or 8080
    args: dict[str, object] = {"port": port, "timeout": rng.choice((30, 60, 120))}
    if rng.bernoulli(0.4):
        args["delay"] = 5
    return TaskDraft(name=f"Wait for port {port} to become available", module="ansible.builtin.wait_for", args=args)


def build_debug(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    messages = (
        f"{profile.service} deployment complete",
        f"Finished configuring {profile.service}",
        "All tasks completed successfully",
    )
    message = rng.choice(messages)
    return TaskDraft(name=f"Print message {message}", module="ansible.builtin.debug", args={"msg": message})


def build_authorized_key(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    user = rng.choice(pools.USERS)
    return TaskDraft(
        name=f"Add SSH key for {user}",
        module="ansible.builtin.authorized_key",
        args={"user": user, "key": "{{ lookup('file', 'files/" + user + ".pub') }}", "state": "present"},
    )


def build_apt_repository(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    repos = (
        ("docker", "deb https://download.docker.com/linux/ubuntu focal stable"),
        ("nodesource", "deb https://deb.nodesource.com/node_18.x focal main"),
        ("grafana", "deb https://packages.grafana.com/oss/deb stable main"),
    )
    label, repo = rng.choice(repos)
    del profile
    return TaskDraft(
        name=f"Add {label} apt repository",
        module="ansible.builtin.apt_repository",
        args={"repo": repo, "state": "present", "update_cache": True},
    )


def build_pip_install(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    package = rng.choice(("ansible", "docker", "requests", "flask", "gunicorn", "supervisor"))
    args: dict[str, object] = {"name": package}
    if rng.bernoulli(0.4):
        args["state"] = "latest"
    if rng.bernoulli(0.3):
        args["executable"] = "pip3"
    return TaskDraft(name=f"Install {package} python package", module="ansible.builtin.pip", args=args)


def build_docker_container(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    image = rng.choice(pools.DOCKER_IMAGES)
    container = image.split("/")[-1].split(":")[0]
    args: dict[str, object] = {
        "name": container,
        "image": image,
        "state": "started",
        "restart_policy": "always",
    }
    if rng.bernoulli(0.6):
        port = rng.choice((80, 8080, 3000, 9090, 6379))
        args["ports"] = [f"{port}:{port}"]
    return TaskDraft(name=f"Run {container} container", module="community.docker.docker_container", args=args)


def build_mysql_db(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    database = rng.choice(("appdb", "webdb", "metrics", "inventory", "users"))
    return TaskDraft(
        name=f"Create {database} mysql database",
        module="community.mysql.mysql_db",
        args={"name": database, "state": "present"},
    )


def build_postgres_user(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    user = rng.choice(pools.USERS)
    return TaskDraft(
        name=f"Create postgresql user {user}",
        module="community.postgresql.postgresql_user",
        args={"name": user, "password": "{{ vault_db_password }}", "state": "present"},
    )


def build_vyos_facts(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del rng, profile
    return TaskDraft(
        name="Get config for VyOS devices",
        module="vyos.vyos.vyos_facts",
        args={"gather_subset": "all"},
    )


def build_vyos_config(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    host = rng.choice(pools.NETWORK_HOSTNAMES)
    return TaskDraft(
        name="Update the hostname",
        module="vyos.vyos.vyos_config",
        args={"backup": True, "lines": [f"set system host-name {host}"]},
    )


def build_ios_config(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    port = rng.choice(("GigabitEthernet0/1", "GigabitEthernet0/2", "TenGigabitEthernet1/1"))
    return TaskDraft(
        name=f"Configure interface {port}",
        module="cisco.ios.ios_config",
        args={"lines": ["no shutdown"], "parents": [f"interface {port}"]},
    )


def build_reboot(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    timeout = rng.choice((300, 600))
    return TaskDraft(
        name="Reboot the machine",
        module="ansible.builtin.reboot",
        args={"reboot_timeout": timeout},
    )


def build_selinux(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    state = rng.choice(("enforcing", "permissive"))
    return TaskDraft(
        name=f"Set SELinux to {state}",
        module="ansible.builtin.selinux",
        args={"policy": "targeted", "state": state},
    )


def build_stat_check(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    path = profile.config_dest
    del rng
    return TaskDraft(
        name=f"Check that {path} exists",
        module="ansible.builtin.stat",
        args={"path": path},
        keywords={"register": "config_stat"},
    )


def build_k8s_apply(rng: SeededRng, profile: pools.ServiceProfile) -> TaskDraft:
    del profile
    namespace = rng.choice(pools.K8S_NAMESPACES)
    manifest = rng.choice(("deployment.yml", "service.yml", "configmap.yml", "ingress.yml"))
    return TaskDraft(
        name=f"Apply {manifest} in {namespace} namespace",
        module="kubernetes.core.k8s",
        args={"state": "present", "src": f"manifests/{manifest}", "namespace": namespace},
    )


# ---------------------------------------------------------------------------
# Scenarios: ordered builder sequences forming coherent roles/playbooks.
# ---------------------------------------------------------------------------

SCENARIOS: dict[str, tuple] = {
    "deploy_service": (
        build_install,
        build_create_directory,
        build_template_config,
        build_start_service,
        build_firewall,
        build_wait_for,
        build_debug,
    ),
    "webapp_deploy": (
        build_git_checkout,
        build_pip_install,
        build_template_config,
        build_start_service,
        build_wait_for,
    ),
    "db_setup": (
        build_install,
        build_start_service,
        build_mysql_db,
        build_postgres_user,
        build_debug,
    ),
    "docker_host": (
        build_apt_repository,
        build_install,
        build_start_service,
        build_docker_container,
        build_wait_for,
    ),
    "artifact_install": (
        build_download,
        build_unarchive,
        build_create_user,
        build_template_config,
        build_start_service,
    ),
    "hardening": (
        build_lineinfile,
        build_selinux,
        build_firewall,
        build_install,
        build_start_service,
        build_sysctl,
    ),
    "bootstrap": (
        build_hostname,
        build_timezone,
        build_install_utilities,
        build_create_user,
        build_authorized_key,
        build_cron,
    ),
    "network_config": (
        build_vyos_facts,
        build_vyos_config,
        build_ios_config,
        build_vyos_facts,
    ),
    "kubernetes_deploy": (
        build_install,
        build_k8s_apply,
        build_wait_for,
        build_debug,
    ),
    "maintenance": (
        build_stat_check,
        build_cron,
        build_sysctl,
        build_reboot,
        build_debug,
    ),
}

_SCENARIO_NAMES = tuple(SCENARIOS)

_PLAY_NAME_TEMPLATES = {
    "deploy_service": ("Install and configure {service}", "Deploy {service}", "{service} setup playbook"),
    "webapp_deploy": ("Deploy web application", "Application deployment playbook"),
    "db_setup": ("Set up {service} database server", "Database provisioning"),
    "docker_host": ("Provision docker host", "Container host setup"),
    "artifact_install": ("Install {service} from release archive", "Artifact installation"),
    "hardening": ("Harden ssh and firewall", "Security hardening playbook"),
    "bootstrap": ("Bootstrap base system", "Common server setup"),
    "network_config": ("Network Setup Playbook", "Configure network devices"),
    "kubernetes_deploy": ("Deploy workloads to kubernetes", "Kubernetes apply playbook"),
    "maintenance": ("Scheduled maintenance", "Maintenance playbook"),
}


@dataclass
class GeneratedFile:
    """One synthetic YAML document with its provenance tags."""

    kind: str  # "playbook" | "tasks"
    scenario: str
    data: object  # parsed-YAML-shaped value


class AnsibleSynthesizer:
    """Generates playbooks and role task-lists from scenarios."""

    def __init__(self, rng: SeededRng, style: StyleProfile = GALAXY_STYLE):
        self.rng = rng
        self.style = style

    def _draft_sequence(self, scenario: str, count: int) -> list[TaskDraft]:
        profile = self.rng.choice(pools.SERVICE_PROFILES)
        builders = SCENARIOS[scenario]
        start = 0 if count >= len(builders) else self.rng.randint(0, len(builders) - count)
        chosen = builders[start:start + count]
        drafts = [builder(self.rng, profile) for builder in chosen]
        file_context = _file_context(self.rng, self.style)
        return [_maybe_keywords(self.rng, self.style, draft, file_context) for draft in drafts]

    def task_list(self, n_tasks: int | None = None, scenario: str | None = None) -> GeneratedFile:
        """A role-style bare task list (``tasks/main.yml``)."""
        scenario = scenario or self.rng.choice(_SCENARIO_NAMES)
        if n_tasks is None:
            n_tasks = 2 + self.rng.poisson_like_count(2.0, 6)
        n_tasks = max(1, min(n_tasks, len(SCENARIOS[scenario])))
        drafts = self._draft_sequence(scenario, n_tasks)
        data = [draft.to_data(self.rng, self.style) for draft in drafts]
        return GeneratedFile(kind="tasks", scenario=scenario, data=data)

    def playbook(self, n_tasks: int | None = None, scenario: str | None = None) -> GeneratedFile:
        """A single-play playbook.

        Mirrors the paper's observation that most Galaxy playbooks hold one
        or two tasks: sampled task counts are 1-2 with high probability and
        3-6 otherwise.
        """
        scenario = scenario or self.rng.choice(_SCENARIO_NAMES)
        if n_tasks is None:
            n_tasks = self.rng.choice((1, 1, 2, 2, 3, 4, 5, 6))
        n_tasks = max(1, min(n_tasks, len(SCENARIOS[scenario])))
        profile = self.rng.choice(pools.SERVICE_PROFILES)
        play_name = self.rng.choice(_PLAY_NAME_TEMPLATES[scenario]).format(service=profile.service)
        play: dict[str, object] = {"name": play_name, "hosts": self.rng.choice(pools.HOST_GROUPS)}
        if scenario == "network_config":
            play["connection"] = "ansible.netcommon.network_cli"
            play["gather_facts"] = False
        else:
            if self.rng.bernoulli(0.4):
                play["become"] = True
            if self.rng.bernoulli(0.25):
                play["gather_facts"] = self.rng.bernoulli(0.5)
        builders = SCENARIOS[scenario]
        chosen = builders[:n_tasks]
        drafts = [builder(self.rng, profile) for builder in chosen]
        file_context = _file_context(self.rng, self.style)
        drafts = [_maybe_keywords(self.rng, self.style, draft, file_context) for draft in drafts]
        play["tasks"] = [draft.to_data(self.rng, self.style) for draft in drafts]
        return GeneratedFile(kind="playbook", scenario=scenario, data=[play])

    def file(self) -> GeneratedFile:
        """A random file: playbooks and role task lists in Galaxy-like ratio.

        Playbooks are deliberately rare (the paper: "playbooks are not well
        represented in our fine-tuning dataset since we found very few
        acceptable playbook samples in Ansible Galaxy").
        """
        if self.rng.bernoulli(0.15):
            return self.playbook()
        return self.task_list()
